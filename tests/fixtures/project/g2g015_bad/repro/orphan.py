def dead():  # no import chain from an entry point reaches this module
    return 2
