def demo():
    return 4
