"""Entry point: imports a re-exported name through its package."""

from .pkg import thing


def main():
    return thing()
