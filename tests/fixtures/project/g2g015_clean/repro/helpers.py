def stamp():
    return "ok"
