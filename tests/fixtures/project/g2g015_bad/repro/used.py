def helper():
    return 1
