"""The run builder: its own Simulation construction is sanctioned."""

from ..sim.engine import Simulation


def simulate(source, protocol, config):
    return Simulation(source, protocol, config).run()
