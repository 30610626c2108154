def thing():
    return 3
