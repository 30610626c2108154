"""Empirical payoff analysis: the Nash argument, measured.

Section IV-C of the paper defines each player's payoff as a function
that (i) decreases with expected energy and memory cost and (ii) drops
to zero if the player loses the ability to send/receive messages with
the original protocol's performance.  The Nash theorems then argue no
unilateral deviation improves that payoff.

This module makes the argument *measurable*: :func:`best_response_check`
runs the honest profile and, for each candidate deviation, a profile
where exactly one node deviates — then compares that node's realized
utility.  It is an empirical check on simulated runs (a complement to,
not a replacement for, the paper's proof), and doubles as a regression
guard: if a code change ever made deviation profitable, the Nash test
in the suite would fail.

Utility model (simulation counterpart of the paper's ``f_i``)::

    utility_i = service_value * delivered_own_messages_i
              - energy_weight * joules_i
              - memory_weight * byte_seconds_i        (zeroed on eviction
                                                       for the service term)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..adversaries.factory import make_strategy
from ..sim.config import SimulationConfig
from ..sim.results import SimulationResults
from ..traces.trace import ContactTrace, NodeId
from .parallel import simulate


@dataclass(frozen=True)
class UtilityModel:
    """Weights of the utility function.

    The defaults make one delivered message worth far more than the
    energy of relaying it — the regime the paper assumes (every node
    "has the ultimate interest of being part of the system").
    """

    service_value: float = 10.0
    energy_weight: float = 1.0
    memory_weight: float = 1e-9

    def utility(self, node: NodeId, results: SimulationResults) -> float:
        """Realized utility of ``node`` in one finished run."""
        delivered_own = sum(
            1
            for record in results.messages.values()
            if record.message.source == node and record.delivered
        )
        received_own = sum(
            1
            for record in results.messages.values()
            if record.message.destination == node and record.delivered
        )
        if node in results.evicted_at:
            # Eviction forfeits the service: the paper's "payoff drops
            # to zero" — costs already paid still count against it.
            service = 0.0
        else:
            service = self.service_value * (delivered_own + received_own)
        return (
            service
            - self.energy_weight * results.energy.get(node, 0.0)
            - self.memory_weight
            * results.memory_byte_seconds.get(node, 0.0)
        )


@dataclass
class DeviationOutcome:
    """Result of one unilateral-deviation comparison."""

    deviation: str
    node: NodeId
    honest_utility: float
    deviant_utility: float
    detected: bool

    @property
    def profitable(self) -> bool:
        """True if deviating strictly beat honesty (a Nash violation)."""
        return self.deviant_utility > self.honest_utility


@dataclass
class BestResponseReport:
    """All deviation outcomes for one protocol/trace pairing."""

    protocol: str
    outcomes: List[DeviationOutcome] = field(default_factory=list)

    @property
    def nash_holds(self) -> bool:
        """No tested deviation was profitable."""
        return not any(o.profitable for o in self.outcomes)

    def render(self) -> str:
        """Text table of the comparisons."""
        lines = [
            f"== empirical best-response check: {self.protocol} ==",
            f"{'deviation':<12}{'node':>6}{'honest U':>12}"
            f"{'deviant U':>12}{'detected':>10}{'profitable':>12}",
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.deviation:<12}{o.node:>6}{o.honest_utility:>12.2f}"
                f"{o.deviant_utility:>12.2f}"
                f"{str(o.detected):>10}{str(o.profitable):>12}"
            )
        lines.append(f"Nash equilibrium holds empirically: {self.nash_holds}")
        return "\n".join(lines)


def best_response_check(
    trace: ContactTrace,
    protocol_factory: Callable[[], object],
    config: SimulationConfig,
    deviations: Tuple[str, ...] = ("dropper",),
    probe_nodes: Optional[List[NodeId]] = None,
    model: Optional[UtilityModel] = None,
    community: Optional[object] = None,
    seeds: Tuple[int, ...] = (1, 2, 3),
) -> BestResponseReport:
    """Compare honest vs unilaterally-deviating *expected* utility.

    The paper's payoff is an expectation: a liar that dodges detection
    in one lucky run still loses on average because conviction (and
    with it the whole service term) happens with high probability.
    Utilities are therefore averaged over ``seeds`` — each seed re-draws
    the traffic while the trace stays fixed.

    Args:
        trace: evaluation trace.
        protocol_factory: builds a fresh protocol per run.
        config: simulation configuration (re-seeded per replication).
        deviations: deviation kinds to probe.
        probe_nodes: nodes to test (default: the three lowest ids —
            every additional node costs one simulation per kind and
            seed).
        model: utility weights.
        community: forwarded to the simulation context.
        seeds: replication seeds for the expectation.

    Returns:
        A :class:`BestResponseReport`; ``report.nash_holds`` is the
        empirical verdict.
    """
    if model is None:
        model = UtilityModel()
    if probe_nodes is None:
        probe_nodes = list(trace.nodes[:3])

    honest_runs = [
        simulate(
            trace, protocol_factory(), config.with_seed(seed),
            community=community,
        )
        for seed in seeds
    ]
    report = BestResponseReport(protocol=honest_runs[0].protocol)

    def mean_utility(node: NodeId, runs: List[SimulationResults]) -> float:
        return sum(model.utility(node, run) for run in runs) / len(runs)

    for deviation in deviations:
        for node in probe_nodes:
            deviant_runs = [
                simulate(
                    trace, protocol_factory(), config.with_seed(seed),
                    strategies={node: make_strategy(deviation, community)},
                    community=community,
                )
                for seed in seeds
            ]
            report.outcomes.append(
                DeviationOutcome(
                    deviation=deviation,
                    node=node,
                    honest_utility=mean_utility(node, honest_runs),
                    deviant_utility=mean_utility(node, deviant_runs),
                    detected=any(
                        node in run.evicted_at for run in deviant_runs
                    ),
                )
            )
    return report
