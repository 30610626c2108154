"""Workload bodies, each run in a fresh interpreter started by ``run.py``.

Usage (internal): ``python3 perfbench/child.py '<json spec>'`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  The spec names the
workload and carries ``spawned``, the parent's ``time.monotonic()`` just
before it started this interpreter, so set-up time covers interpreter
start, imports and the workload's set-up.  The last line of standard
output is one JSON object with everything the parent needs.

Digests are computed after each timed region; a run that raises or
fails a check is reported, never retried.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
import tracer as tracing

#: The eight paper-setting runs (Sec. V): trace, protocol, adversary, count.
PAPER_RUNS = tuple(
    (trace, protocol, adversary, count)
    for trace in ("infocom05", "cambridge06")
    for protocol, adversary, count in (
        ("g2g_epidemic", None, 0),
        ("g2g_epidemic", "dropper", 10),
        ("g2g_delegation_frequency", "liar", 10),
        ("g2g_delegation_last_contact", "cheater", 10),
    )
)

#: Smoke mode's paper runs: one message per minute instead of per 4 s.
SMOKE_PAPER_CONFIG = {"mean_interarrival": 60.0}

#: stream_scale's stream and the scale-bench config recipe around it.
STREAM = {"nodes": 2000, "duration": 21600.0, "contacts_per_node": 30.0, "messages": 300}
SMOKE_STREAM = {"nodes": 300, "duration": 3600.0, "contacts_per_node": 10.0, "messages": 30}

#: Kernel runs per host-speed reading around a stream run, which is
#: several seconds long.
STREAM_READING_REPS = 5

#: Fewest and most warm figure_grid passes after the cold pass.
WARM_PASSES = (10, 20)


def peak_rss_mb(children: bool = False) -> float:
    """ru_maxrss of this process (or its largest waited-for child) in MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def ops_total(results: List[Any]) -> Dict[str, float]:
    """Sum the per-run ``ops.*`` and ``engine.*`` telemetry counters."""
    totals: Dict[str, float] = {}
    for result in results:
        telemetry = getattr(result, "telemetry", None)
        if telemetry is None:
            continue
        for name, value in telemetry["counters"].items():
            if name.startswith(("ops.", "engine.")):
                totals[name] = totals.get(name, 0) + value
    return totals


def records_digest(result: Any) -> str:
    """Digest of a run's stored records: ``results_digest`` without the
    derived ``summary`` block, whose float sums depend on dict order."""
    import hashlib

    from repro.sim.serialize import results_to_dict

    data = results_to_dict(result)
    del data["summary"]
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Child:
    """One measuring interpreter: set-up, timed passes, traced passes."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.seed = int(spec["seed"])
        self.smoke = bool(spec.get("smoke"))
        self.traced = bool(spec.get("trace"))
        self.out: Dict[str, Any] = {}
        self.tracer: Optional[tracing.Tracer] = None
        if self.traced:
            self.tracer = tracing.Tracer()

    def ready(self) -> None:
        """Mark the end of set-up (fresh interpreter to first run ready)."""
        self.out["setup_s"] = time.monotonic() - float(self.spec["spawned"])
        # The host-speed reading that closes set-up; run.py took the one
        # that opens it just before starting this interpreter.
        self.out["setup_after"] = hostspeed.reading()

    def traced_layers(self, first: int = 0) -> Dict[str, Any]:
        """Per span name: count, total, self and p50 (spans from ``first``)."""
        import numpy as np

        assert self.tracer is not None
        summary = self.tracer.summary(first)
        return {
            name: {
                "count": entry["count"],
                "total_s": entry["total_s"],
                "self_s": entry["self_s"],
                "p50_s": float(np.median(entry["durations"])),
            }
            for name, entry in summary.items()
        }

    def save_spans(self, label: str) -> None:
        assert self.tracer is not None
        path = os.path.join(self.spec["out"], f"spans-{label}.npz")
        self.tracer.save(path)


# -- paper_runs -----------------------------------------------------------


class PaperSetting(Child):
    """Set-up shared by the two workloads on the paper's traces: the
    package import, then both evaluation traces and their communities."""

    def setup(self) -> None:
        from repro.experiments.setting import (
            TRACES,
            evaluation_community,
            evaluation_trace,
        )

        if self.tracer is not None:
            self.tracer.install()
            self.tracer.new_run()
        for trace in TRACES:
            evaluation_trace(trace)
            evaluation_community(trace)
        self.ready()
        if self.tracer is not None:
            self.tracer.uninstall()


class PaperRuns(PaperSetting):
    """Eight paper-setting runs through ``repro.api.run``, in one process."""

    def one_pass(self, runs: Tuple[Any, ...] = PAPER_RUNS) -> Dict[str, Any]:
        from repro import api
        from repro.telemetry.export import TelemetryCollector

        collector = TelemetryCollector()
        config = SMOKE_PAPER_CONFIG if self.smoke else None
        walls: List[float] = []
        results: List[Any] = []
        errors: List[Optional[str]] = []
        readings = [hostspeed.reading()]
        for trace, protocol, adversary, count in runs:
            if self.tracer is not None:
                self.tracer.new_run()
            t0 = time.perf_counter()
            try:
                result = api.run(
                    trace,
                    protocol,
                    config,
                    seed=self.seed,
                    adversary=adversary,
                    adversary_count=count,
                    telemetry=collector,
                )
            except Exception as exc:  # counted as a failed operation
                result = None
                errors.append(error_text(exc))
            else:
                errors.append(None)
            walls.append(time.perf_counter() - t0)
            readings.append(hostspeed.reading())
            results.append(result)
        # The pass's wall is its runs' walls: the host-speed readings
        # between runs stay out of it.  Every run of the pass takes the
        # median of its readings as scale, which a single outlying
        # reading does not move.
        scale = hostspeed.REFERENCE_S / statistics.median(readings)
        scaled = [wall * scale for wall in walls]
        return {
            "wall": sum(walls), "walls": walls, "scaled": scaled,
            "results": results, "errors": errors,
        }

    def checks(self, done: Dict[str, Any]) -> Dict[str, Any]:
        """Digests and the no-false-positive invariant, outside timing."""
        from repro.experiments.catalog import protocol as catalog
        from repro.experiments.parallel import RunRequest
        from repro.perf.bench import results_digest

        digests: List[Optional[str]] = []
        false_positives: List[int] = []
        for (trace, protocol, adversary, count), result in zip(
            PAPER_RUNS, done["results"]
        ):
            if result is None:
                digests.append(None)
                false_positives.append(0)
                continue
            digests.append(results_digest(result))
            misbehaving = RunRequest(
                trace_name=trace,
                family=catalog(protocol)[0],
                protocol_name=protocol,
                seed=self.seed,
                deviation=adversary,
                deviation_count=count,
            ).misbehaving()
            false_positives.append(len(result.false_positives(misbehaving)))
        contacts = ops_total([r for r in done["results"] if r is not None]).get(
            "ops.stream_contacts", 0
        )
        return {
            "wall": done["wall"],
            "walls": done["walls"],
            "scaled": done["scaled"],
            "errors": done["errors"],
            "digests": digests,
            "false_positives": false_positives,
            "contacts": contacts,
            "labels": [
                f"{t}/{p}/{a or 'honest'}/{c}" for t, p, a, c in PAPER_RUNS
            ],
        }

    def main(self) -> None:
        self.setup()
        seconds = float(self.spec["seconds"])
        passes: List[Dict[str, Any]] = []
        if not self.traced:
            started = time.perf_counter()
            while len(passes) < 2 or (
                time.perf_counter() - started
                + passes[-1]["wall"] <= seconds
            ):
                passes.append(self.checks(self.one_pass()))
            self.out["passes"] = passes
            self.out["peak_rss_mb"] = peak_rss_mb()
            return
        assert self.tracer is not None
        plain = self.one_pass()
        self.tracer.install()
        with self.tracer.span("bench:pass"):
            traced = self.one_pass()
        self.tracer.uninstall()
        self.out["layers"] = self.traced_layers()
        self.out["ops"] = ops_total([r for r in traced["results"] if r is not None])
        self.out["overhead"] = [traced["wall"], plain["wall"]]
        self.save_spans(f"paper_runs-{self.seed}")
        self.out["passes"] = [self.checks(plain), self.checks(traced)]
        del plain, traced
        # Allocation attribution on the honest G2G Epidemic runs, which
        # hold the most copies: tracemalloc slows a run about fourfold.
        with tracing.AllocProbe() as probe:
            self.one_pass(tuple(run for run in PAPER_RUNS if run[2] is None))
        self.out["alloc_mb"] = {k: v / 2**20 for k, v in probe.peak_bytes.items()}


# -- figure_grid ------------------------------------------------------------


class FigureGrid(PaperSetting):
    """Fig. 8 quick: a cold pass against an empty run cache, then warm ones."""

    def one_pass(self, cache_dir: str, tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
        from repro.experiments import fig8
        from repro.experiments.cache import RunCache
        from repro.experiments.parallel import ExecutionOptions
        from repro.experiments.runner import ReplicationPlan
        from repro.telemetry.export import TelemetryCollector

        class Capture(TelemetryCollector):
            """Keeps every result, in request order, for the checks."""

            def __init__(self) -> None:
                super().__init__()
                self.results: List[Any] = []

            def add(self, results: Any) -> None:
                if tracer is not None:
                    tracer.harvest(results)
                self.results.append(results)
                super().add(results)

        cache = RunCache(cache_dir)
        capture = Capture()
        options = ExecutionOptions(
            workers=min(2, os.cpu_count() or 1), cache=cache, telemetry=capture
        )
        started = time.perf_counter()
        plan = ReplicationPlan(seeds=(self.seed, self.seed + 1))
        panels = fig8.run(plan=plan, options=options)
        wall = time.perf_counter() - started
        return {
            "wall": wall,
            "panels": panels,
            "results": capture.results,
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "workers": options.workers,
        }

    def cycle(
        self,
        cache_dir: str,
        tracer: Optional[tracing.Tracer],
        layers: List[str],
        warm_passes: Tuple[int, int],
        until: float = 0.0,
    ) -> Dict[str, Any]:
        """A cold pass into an empty cache, then between ``warm_passes[0]``
        and ``warm_passes[1]`` warm ones, more than the fewest while the
        next is expected to end by ``until`` (a ``time.perf_counter()``
        reading).

        Timing and checks are recorded per pass; the cache directory is
        removed afterwards.
        """
        from repro.perf.bench import results_digest

        record: Dict[str, Any] = {"warm": [], "errors": []}
        try:
            if tracer is not None:
                tracer.install(layers)
            try:
                before = hostspeed.reading()
                with tracing.maybe_span(tracer, "bench:cold_pass"):
                    cold = self.one_pass(cache_dir, tracer)
                after = hostspeed.reading()
                # The cold pass runs on the pool: its readings are the
                # two around it and one per run in the workers (about
                # 17 ms each, inside the pass's wall).
                record["cold_ref"] = statistics.median(
                    [before, after] + (tracer.worker_readings if tracer else [])
                )
                record["warm_first"] = len(tracer.start) if tracer else 0
                record["hits"], record["misses"] = cold["hits"], cold["misses"]
                while len(record["warm"]) < warm_passes[0] or (
                    len(record["warm"]) < warm_passes[1]
                    and time.perf_counter() + record["warm"][-1]["wall"] <= until
                ):
                    with tracing.maybe_span(tracer, "bench:warm_pass"):
                        warm = self.one_pass(cache_dir, tracer)
                    before, after = after, hostspeed.reading()
                    record["hits"] += warm["hits"]
                    record["misses"] += warm["misses"]
                    record["warm"].append(
                        {
                            "wall": warm["wall"],
                            "scaled": hostspeed.scaled(warm["wall"], before, after),
                            "records": [records_digest(r) for r in warm["results"]],
                            "panels_equal": warm["panels"] == cold["panels"],
                        }
                    )
                    del warm
            finally:
                if tracer is not None:
                    tracer.uninstall()
            record["cold"] = cold["wall"]
            record["workers"] = cold["workers"]
            record["ops"] = ops_total(cold["results"])
            record["digests"] = [results_digest(r) for r in cold["results"]]
            record["records"] = [records_digest(r) for r in cold["results"]]
            record["labels"] = [
                f"{r.trace.split('[')[0]}/{r.protocol}/{r.seed}"
                for r in cold["results"]
            ]
            entries = [
                os.path.join(cache_dir, name)
                for name in os.listdir(cache_dir)
                if name.endswith(".json")
            ]
            record["bytes_per_entry"] = sum(
                os.path.getsize(path) for path in entries
            ) / max(1, len(entries))
        except Exception as exc:  # the whole cycle counts as failed
            record["errors"].append(error_text(exc))
            traceback.print_exc(file=sys.stderr)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return record

    def main(self) -> None:
        self.setup()
        seconds = float(self.spec["seconds"])
        root = os.path.join(self.spec["out"], f"cache-{os.getpid()}")
        cycles: List[Dict[str, Any]] = []
        try:
            if not self.traced:
                # One cold pass, then warm passes spread over the rest of
                # the window.  Per-run walls come from one span per
                # executed run, timed inside the pool worker; nothing
                # else is traced.
                probe = tracing.Tracer(readings=True)
                record = self.cycle(
                    os.path.join(root, "untraced"),
                    probe,
                    ["experiments.parallel"],
                    (1, 1) if self.smoke else WARM_PASSES,
                    until=time.perf_counter() + seconds,
                )
                record["run_walls"] = [
                    float(x)
                    for x in probe.summary()
                    .get(tracing.WORKER_ROOT, {"durations": []})["durations"]
                ]
                cycles.append(record)
            else:
                assert self.tracer is not None
                cycles.append(self.cycle(os.path.join(root, "plain"), None, [], (1, 1)))
                first = len(self.tracer.start)
                traced = self.cycle(
                    os.path.join(root, "traced"), self.tracer, list(tracing.LAYERS), (1, 1)
                )
                cycles.append(traced)
                self.out["layers"] = self.traced_layers()
                self.out["warm_layers"] = self.traced_layers(
                    max(first, traced.get("warm_first", first))
                )
                self.save_spans(f"figure_grid-{self.seed}")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.out["cycles"] = cycles
        self.out["peak_rss_mb"] = max(peak_rss_mb(), peak_rss_mb(children=True))


# -- stream_scale -------------------------------------------------------------


class StreamScale(Child):
    """One protocol over the synthetic stream, twice: cold, then warm."""

    def setup(self) -> None:
        from repro import api  # noqa: F401
        from repro.sim.config import SimulationConfig
        from repro.traces.stream import StreamModelConfig, SyntheticStreamSource

        size = SMOKE_STREAM if self.smoke else STREAM
        duration = size["duration"]
        silent_tail = duration / 4.0
        self.source = SyntheticStreamSource(
            StreamModelConfig(
                nodes=size["nodes"],
                duration=duration,
                seed=self.seed,
                contacts_per_node=size["contacts_per_node"],
            )
        )
        # The scale-bench recipe: ttl = duration/2, silent tail =
        # duration/4, a fixed message budget over the rest.
        self.config = SimulationConfig(
            run_length=duration,
            silent_tail=silent_tail,
            mean_interarrival=(duration - silent_tail) / size["messages"],
            ttl=duration / 2.0,
            seed=self.seed,
            track_memory=False,
        )
        self.ready()

    def one_run(self, sampler: Optional[hostspeed.Sampler] = None) -> Dict[str, Any]:
        """One run; with ``sampler``, host-speed readings are taken
        during it and their time is left out of ``wall``."""
        from repro import api
        from repro.perf.bench import results_digest
        from repro.perf.counters import COUNTERS

        before = COUNTERS.snapshot()
        with sampler or contextlib.nullcontext():
            started = time.perf_counter()
            try:
                result = api.run(self.source, self.spec["protocol"], self.config)
            except Exception as exc:  # counted as a failed operation
                result, error = None, error_text(exc)
            wall = time.perf_counter() - started
        if sampler is not None:
            wall -= sampler.spent
        if result is None:
            return {"error": error, "wall": wall}
        rss_mb = peak_rss_mb()
        ops = COUNTERS.diff(before)
        return {
            "error": None,
            "wall": wall,
            "rss_mb": rss_mb,
            "contacts": ops["stream_contacts"],
            "delivered": result.delivered,
            "digest": results_digest(result),
            "ops": ops_total([result]),
        }

    def main(self) -> None:
        self.setup()
        if self.spec.get("attempt_only"):
            self.out["runs"] = [self.one_run()]
            return
        if not self.traced:
            # Each run's scale: the median of the readings around it and
            # of those taken during it.
            before = self.out["setup_after"]
            runs = []
            for _ in range(2):
                sampler = hostspeed.Sampler()
                run = self.one_run(sampler)
                after = hostspeed.reading(STREAM_READING_REPS)
                ref = statistics.median([before, after] + sampler.readings)
                run["scaled"] = run["wall"] * hostspeed.REFERENCE_S / ref
                before = after
                runs.append(run)
            self.out["runs"] = runs
            return
        assert self.tracer is not None
        plain = self.one_run()
        self.tracer.install()
        self.tracer.new_run()
        with self.tracer.span("bench:run"):
            traced = self.one_run()
        self.tracer.uninstall()
        self.out["runs"] = [plain, traced]
        self.out["layers"] = self.traced_layers()
        self.out["ops"] = traced.get("ops", {})
        self.out["overhead"] = [traced["wall"], plain["wall"]]
        self.save_spans(f"stream_scale-{self.spec['protocol']}-{self.seed}")
        if self.spec["protocol"] != "g2g_epidemic":
            return
        # Allocation attribution on the run that sets peak_rss_mb only:
        # tracemalloc slows a run about fourfold.
        with tracing.AllocProbe() as probe:
            self.one_run()
        self.out["alloc_mb"] = {k: v / 2**20 for k, v in probe.peak_bytes.items()}


WORKLOADS = {
    "paper_runs": PaperRuns,
    "figure_grid": FigureGrid,
    "stream_scale": StreamScale,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    child = WORKLOADS[spec["workload"]](spec)
    if spec.get("setup_only"):
        child.setup()
    else:
        child.main()
    print(json.dumps(child.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
