"""Clean counterpart: the run goes through the one run builder."""

from .parallel import simulate


def honest_run(trace, protocol, config):
    return simulate(trace, protocol, config)
