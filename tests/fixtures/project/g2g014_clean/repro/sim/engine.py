"""The engine module: the class whose construction G2G014 fences."""


class Simulation:
    def __init__(self, source, protocol, config):
        self.source = source

    def run(self):
        return None
