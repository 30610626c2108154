def thing():  # only the package re-export names it: not a use
    return 3
