"""Builds a run by hand outside the run builder — G2G014."""

from ..sim import engine


def honest_run(trace, protocol, config):
    return engine.Simulation(trace, protocol, config).run()
