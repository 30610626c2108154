"""Parallel execution of independent simulation runs.

Every paper figure is a grid of *independently seeded* simulations —
embarrassingly parallel work the sequential runner left on the table.
This module fans a batch of :class:`RunRequest` grid points out over a
``ProcessPoolExecutor`` and merges the results back **in request
order**, so parallel and sequential execution produce bit-identical
output; ``workers=1`` is exactly the old in-process path.

An optional :class:`~repro.experiments.cache.RunCache` is consulted
before any run executes and written after each successful run, so a
warm cache short-circuits the whole batch.  Cache writes happen only
in the parent process and only for runs that completed — a worker
crash surfaces its exception (the first one in request order, after
the rest of the batch drains) without hanging the pool or leaving a
partial cache entry behind.

:func:`simulate` is the one place a run is assembled; requests,
:func:`repro.api.run` and the Nash payoff harness all go through it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..adversaries.base import Strategy
from ..adversaries.factory import mixed_population, strategy_population
from ..core.blacklist import BlacklistService
from ..protocols.base import CommunityOracle, ForwardingProtocol
from ..sim.config import SimulationConfig, config_for
from ..sim.engine import Simulation
from ..sim.results import SimulationResults
from ..social.communities import CommunityMap
from ..telemetry.export import TelemetryCollector
from ..traces.stream import ContactSource, ensure_contact_source, source_from_spec
from ..traces.trace import ContactTrace, NodeId
from .cache import RunCache, run_key
from .catalog import protocol
from .setting import evaluation_community, evaluation_trace


@dataclass(frozen=True)
class RunRequest:
    """One simulation run, fully described by picklable values.

    Attributes:
        trace_name: "infocom05" or "cambridge06".
        family: TTL family, "epidemic" or "delegation".
        protocol_name: a :data:`repro.experiments.catalog.PROTOCOLS`
            name — the worker rebuilds the factory from it, and the
            cache keys on it.  None marks an ad-hoc factory that can
            only run in-process (and uncached).
        seed: replication seed (traffic, crypto, adversary placement).
        deviation: adversary kind, or None for all-honest.
        deviation_count: how many nodes deviate.
        overrides: sorted ``(field, value)`` pairs of
            :class:`~repro.sim.config.SimulationConfig` overrides,
            kept as a tuple so requests stay hashable and picklable.
        mix: adversary-mix fractions as sorted ``(kind, fraction)``
            pairs (scenario runs); mutually exclusive with
            ``deviation``.  The worker expands it into a mixed
            population with :func:`repro.adversaries.mixed_population`.
        churn: churn cohorts as ``(fraction, leave_time, rejoin_time)``
            tuples (``rejoin_time`` None for permanent departures);
            expanded into node-level join/leave timers by the worker.
        energy_budget: energy-budget spec, ``()`` for unbounded,
            ``("constant", joules)`` or ``("uniform", lo, hi)``.
        source: streaming-source spec as sorted ``(field, value)``
            pairs of a :class:`repro.traces.StreamModelConfig` —
            ``()`` for ordinary trace runs.  When set, the worker
            rebuilds the synthetic stream from the spec instead of
            loading an evaluation trace, and ``trace_name`` is a
            display label only.  Source runs carry their full config
            in ``overrides`` (there is no preset TTL table for
            synthetic universes) and do not support adversary
            placement (``deviation``/``mix``), which would need an
            enumerated node list.
    """

    trace_name: str
    family: str
    protocol_name: Optional[str]
    seed: int
    deviation: Optional[str] = None
    deviation_count: int = 0
    overrides: Tuple[Tuple[str, object], ...] = ()
    mix: Tuple[Tuple[str, float], ...] = ()
    churn: Tuple[Tuple[float, float, Optional[float]], ...] = ()
    energy_budget: Tuple[Any, ...] = ()
    source: Tuple[Tuple[str, Any], ...] = ()

    def config(self) -> SimulationConfig:
        """The run's full simulation configuration."""
        if self.source:
            overrides = dict(self.overrides)
            overrides["seed"] = self.seed
            return SimulationConfig(**overrides)  # type: ignore[arg-type]
        return config_for(
            self.trace_name,
            self.family,
            seed=self.seed,
            **dict(self.overrides),
        )

    def scenario_extras(self) -> Optional[Mapping[str, Any]]:
        """Scenario inputs for the cache key, None for plain runs.

        Plain (pre-scenario) requests return None so their cache keys
        — and any entries archived under them — are unchanged.
        """
        if not (self.mix or self.churn or self.energy_budget):
            return None
        return {
            "mix": [list(pair) for pair in self.mix],
            "churn": [list(cohort) for cohort in self.churn],
            "energy_budget": list(self.energy_budget),
        }

    def cache_key(self) -> Optional[str]:
        """Content hash for the run cache (None for ad-hoc factories)."""
        if self.protocol_name is None:
            return None
        return run_key(
            trace_name=self.trace_name,
            family=self.family,
            protocol_name=self.protocol_name,
            deviation=self.deviation,
            deviation_count=self.deviation_count,
            seed=self.seed,
            config=self.config(),
            scenario=self.scenario_extras(),
            source=self.source or None,
        )

    def roles(self) -> Dict[str, Tuple[int, ...]]:
        """Adversary class -> member nodes, recomputed deterministically.

        The placement :func:`simulate` plants for this request, from the
        same :func:`place_adversaries` call over the evaluation trace and
        its community.  All-honest runs return an empty map.
        """
        if not self.mix and (self.deviation is None or self.deviation_count <= 0):
            return {}
        _, roles = place_adversaries(
            evaluation_trace(self.trace_name).nodes,
            self.seed,
            community=evaluation_community(self.trace_name),
            deviation=self.deviation,
            deviation_count=self.deviation_count,
            mix=dict(self.mix) if self.mix else None,
        )
        return roles

    def misbehaving(self) -> Tuple[int, ...]:
        """The deterministic set of deviating nodes for this run."""
        return tuple(sorted(
            node for nodes in self.roles().values() for node in nodes
        ))


def place_adversaries(
    universe: Sequence[NodeId],
    seed: int,
    *,
    community: Optional[CommunityOracle] = None,
    deviation: Optional[str] = None,
    deviation_count: int = 0,
    mix: Optional[Mapping[str, float]] = None,
) -> Tuple[Optional[Dict[NodeId, Strategy]], Dict[str, Tuple[NodeId, ...]]]:
    """Strategies and adversary roles for one run's placement input.

    A ``mix`` of kind -> fraction, or ``deviation_count`` nodes of kind
    ``deviation``, placed over ``universe`` by ``seed``.  Returns
    ``(strategies, roles)``; ``(None, {})`` when nothing deviates.
    """
    if mix is not None:
        return mixed_population(universe, mix, seed=seed, community=community)
    if deviation is not None and deviation_count > 0:
        strategies, misbehaving = strategy_population(
            universe, deviation, deviation_count, seed=seed, community=community
        )
        return strategies, {deviation: misbehaving}
    return None, {}

def simulate(
    source: Union[ContactTrace, ContactSource],
    protocol: ForwardingProtocol,
    config: SimulationConfig,
    *,
    community: Optional[CommunityOracle] = None,
    strategies: Optional[Dict[NodeId, Strategy]] = None,
    deviation: Optional[str] = None,
    deviation_count: int = 0,
    mix: Optional[Mapping[str, float]] = None,
    churn: Sequence[Tuple[float, float, Optional[float]]] = (),
    energy_budget: Sequence[Any] = (),
    blacklist: Optional[BlacklistService] = None,
) -> SimulationResults:
    """Build one run and execute it — the one place a run is assembled.

    Adversary placement (explicit ``strategies``, ``deviation_count``
    nodes of kind ``deviation``, or a ``mix`` of kind -> fraction;
    at most one), churn cohorts and the energy-budget spec (as in
    :class:`RunRequest`) are expanded over the source's node universe,
    each seeded by ``config.seed``.  ``protocol`` must be fresh.
    """
    if sum(x is not None for x in (strategies, deviation, mix)) > 1:
        raise ValueError("pass at most one of strategies, deviation or mix")
    source = ensure_contact_source(source, "simulate")
    universe = source.universe
    if strategies is None:
        strategies, _ = place_adversaries(
            universe,
            config.seed,
            community=community,
            deviation=deviation,
            deviation_count=deviation_count,
            mix=mix,
        )
    churn_events = None
    energy_budgets = None
    if churn or energy_budget:
        # Lazy import: repro.scenarios imports this module for
        # RunRequest/run_requests, so the expansion helpers must load
        # only when a scenario run actually executes.
        from ..scenarios.spec import churn_events_for, energy_budgets_for

        if churn:
            churn_events = churn_events_for(universe, churn, seed=config.seed)
        if energy_budget:
            energy_budgets = energy_budgets_for(
                universe, tuple(energy_budget), seed=config.seed
            )
    return Simulation(
        source,
        protocol,
        config,
        strategies=strategies,
        community=community,
        blacklist=blacklist,
        churn=churn_events,
        energy_budgets=energy_budgets,
    ).run()


def execute_request(
    request: RunRequest,
    factory: Optional[Callable[[], object]] = None,
) -> SimulationResults:
    """Run one request to completion (the worker-side entry point).

    Args:
        request: the run description.
        factory: explicit protocol factory for ad-hoc requests; by
            default the factory is resolved from the catalog by
            ``request.protocol_name``.
    """
    if not isinstance(request, RunRequest):
        raise TypeError(
            f"execute_request expects a RunRequest, got"
            f" {type(request).__name__} — build one with"
            f" RunRequest(trace_name=..., family=..., protocol_name=...)"
        )
    if factory is None:
        if request.protocol_name is None:
            raise ValueError(
                "ad-hoc RunRequest needs an explicit protocol factory"
            )
        _, factory = protocol(request.protocol_name)
    source: Union[ContactTrace, ContactSource]
    community: Optional[CommunityMap] = None
    if request.source:
        if request.mix or request.deviation is not None:
            raise ValueError(
                "source requests do not support adversary placement"
                " (deviation/mix) — it needs an enumerated node list"
            )
        source = source_from_spec(request.source)
    else:
        source = evaluation_trace(request.trace_name)
        community = evaluation_community(request.trace_name)
    return simulate(
        source,
        factory(),
        request.config(),
        community=community,
        deviation=request.deviation,
        deviation_count=request.deviation_count,
        mix=dict(request.mix) if request.mix else None,
        churn=request.churn,
        energy_budget=request.energy_budget,
    )


@dataclass
class RunReport:
    """Progress/timing accounting for one experiment invocation."""

    executed: int = 0
    cached: int = 0
    seconds: float = 0.0

    @property
    def total(self) -> int:
        """Total runs satisfied (simulated plus cache hits)."""
        return self.executed + self.cached

    def summary(self) -> str:
        """One-line human rendering for the CLI."""
        return (
            f"{self.total} runs: {self.executed} simulated, "
            f"{self.cached} cache hits, {self.seconds:.1f}s wall"
        )


@dataclass
class ExecutionOptions:
    """How a batch of runs executes: worker count, cache, reporting.

    Attributes:
        workers: process count; 1 (default) runs in-process on the
            exact sequential path.
        cache: optional :class:`RunCache`; None disables both reads
            and writes (the CLI's ``--no-cache``).
        report: optional accumulator; one report can span several
            experiment modules (the CLI threads a single one through
            a whole figure).
        on_progress: optional callback fired after each satisfied run
            with ``(done, total, was_cached)``.
        telemetry: optional collector; every finished batch feeds its
            results in **request order**, so the merged metric totals
            are identical whatever the worker count.  Cache hits carry
            no telemetry snapshot (the JSON run cache stores simulation
            outcomes only) and are counted as skipped by the collector.
    """

    workers: int = 1
    cache: Optional[RunCache] = None
    report: Optional[RunReport] = None
    on_progress: Optional[Callable[[int, int, bool], None]] = None
    telemetry: Optional[TelemetryCollector] = None

    def _tick(self, done: int, total: int, was_cached: bool) -> None:
        if self.on_progress is not None:
            self.on_progress(done, total, was_cached)


def run_requests(
    requests: Sequence[RunRequest],
    options: Optional[ExecutionOptions] = None,
) -> List[SimulationResults]:
    """Execute a batch of requests, returning results in request order.

    Cache hits are satisfied first; the remainder runs in-process
    (``workers <= 1``) or on a process pool.  Output is deterministic:
    ``results[i]`` always corresponds to ``requests[i]``, whatever the
    completion order, so parallel and sequential runs are
    bit-identical.

    Raises:
        TypeError: if ``requests`` is a single :class:`RunRequest` (wrap
            it in a list) or contains non-``RunRequest`` items.
        Exception: the first (in request order) worker exception, after
            every other run in the batch has drained — the pool never
            hangs and successful runs are still cached.
    """
    if isinstance(requests, RunRequest):
        raise TypeError(
            "run_requests expects a sequence of RunRequest objects, got"
            " a single RunRequest — wrap it in a list: run_requests([request])"
        )
    for position, request in enumerate(requests):
        if not isinstance(request, RunRequest):
            raise TypeError(
                f"run_requests expects RunRequest objects,"
                f" got {type(request).__name__} at index {position}"
            )
    if options is None:
        options = ExecutionOptions()
    started = time.perf_counter()  # g2g: allow(G2G002: wall time feeds the run report only, never results)
    total = len(requests)
    results: List[Optional[SimulationResults]] = [None] * total
    keys: List[Optional[str]] = [r.cache_key() for r in requests]
    pending: List[int] = []
    done = 0
    cached = 0
    for i, request in enumerate(requests):
        hit = None
        if options.cache is not None and keys[i] is not None:
            hit = options.cache.get(keys[i])
        if hit is not None:
            results[i] = hit
            cached += 1
            done += 1
            options._tick(done, total, True)
        else:
            pending.append(i)

    def store(i: int, result: SimulationResults) -> None:
        nonlocal done
        results[i] = result
        if options.cache is not None and keys[i] is not None:
            options.cache.put(keys[i], result)
        done += 1
        options._tick(done, total, False)

    try:
        if options.workers <= 1 or len(pending) <= 1:
            for i in pending:
                store(i, execute_request(requests[i]))
        else:
            # Warm the trace/community caches in the parent first:
            # fork-started workers then inherit the built artifacts
            # instead of each re-running community detection.  Source
            # requests are skipped — their trace_name is a display
            # label, not an evaluation-trace key.
            for trace_name in sorted(
                {
                    requests[i].trace_name
                    for i in pending
                    if not requests[i].source
                }
            ):
                evaluation_trace(trace_name)
                evaluation_community(trace_name)
            workers = min(options.workers, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    i: pool.submit(execute_request, requests[i])
                    for i in pending
                }
                error: Optional[BaseException] = None
                for i in pending:
                    try:
                        result = futures[i].result()
                    except BaseException as exc:  # g2g: allow-broad-except(first worker error is re-raised after the batch drains)
                        if error is None:
                            error = exc
                        continue
                    store(i, result)
                if error is not None:
                    raise error
    finally:
        if options.report is not None:
            options.report.executed += done - cached
            options.report.cached += cached
            # g2g: allow(G2G002: wall time feeds the run report only, never results)
            options.report.seconds += time.perf_counter() - started
    if options.telemetry is not None:
        # Fed strictly in request order (not completion order): float
        # metric sums then fold identically for any worker count.
        for result in results:
            options.telemetry.add(result)
    return results
