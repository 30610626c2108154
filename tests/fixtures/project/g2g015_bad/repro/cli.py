"""Entry point: reaches ``used`` directly and ``pkg`` only as a package."""

import repro.pkg

from .used import helper


def main():
    return helper(), repro.pkg
