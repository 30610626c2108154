"""The repository benchmark: three closed-loop workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_runs --seed 1 --seconds 30 --trace 0

Workloads (one client issuing runs back to back; the seed makes the inputs):

* ``paper_runs`` -- eight paper-setting runs (Sec. V: Infocom05 and
  Cambridge06, 3-hour window, one message per 4 s) through
  ``repro.api.run`` in one process, workers=1, no run cache.
* ``figure_grid`` -- ``repro.experiments.fig8`` quick (6 protocols x 2
  traces x 2 seeds) on a process pool against an empty ``RunCache``
  (the cold pass), then warm passes that read every entry back.
* ``stream_scale`` -- ``g2g_epidemic`` and ``epidemic`` over a 2000-node
  ``SyntheticStreamSource`` with the scale-bench config recipe, each in
  a fresh interpreter so peak RSS is per run; ``g2g_delegation_frequency``
  is attempted over the same stream and counted when it fails.

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
a separate traced run prints every per-layer metric (see ``tracer.py``)
and writes its spans under ``--out``.  Human-readable lines (metric,
value, unit, sample count, base of ratios) come first; the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are scaled to a reference host speed (see ``hostspeed.py``): each
timed step is bracketed by two readings of a fixed kernel, and its time
is multiplied by ``REFERENCE_S`` over their mean; rates use the scaled
times.  The human-readable lines give the raw figure next to each
scaled one.

Correctness: on the default seed every run's results digest must equal
the one pinned in ``pinned.json``; on every seed, repeated runs must
reproduce their digests, warm-cache results must equal cold ones, the
adversarial paper runs must convict no honest node, and the stream's
G2G Epidemic must deliver.  A run that raises or fails a check counts
in ``failed``.  ``correct`` is false when an operation outside
``KNOWN_DEFECTS`` fails.

``--smoke`` runs every workload at a tiny size (digests are not pinned
there); ``test_smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import hostspeed
from tracer import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(BENCH_DIR, "pinned.json")

#: Seed whose digests are pinned.
DEFAULT_SEED = 1

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3

#: Whole-run deadline, below the 180 s a run may take.
DEADLINE_S = 170.0

#: Operations known to fail today, by "workload/label".  They still
#: count in ``failed``; they do not make ``correct`` false, so a fix
#: shows as fewer failures.
KNOWN_DEFECTS = {
    # G2G Delegation on a lazy stream: ``bind`` snapshots the node list
    # while the engine's node table is still empty, so the first relay
    # raises IndexError (core/g2g_delegation.py).
    "stream_scale/g2g_delegation_frequency",
    # A cache round trip re-orders the per-node dicts (JSON sorts their
    # string keys), so float sums such as a Fig. 8 point's
    # memory_byte_seconds differ from the cold pass in the last bits.
    "figure_grid/panels/warm",
}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "run_p50_s": "s",
    "run_p90_s": "s",
    "warm_s": "s",
    "contacts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "traces.generate_s": "s",
    "traces.window_s": "s",
    "traces.stream_chunk_s": "s",
    "traces.stream_contacts": "count",
    "traces.stream_chunks": "count",
    "social.detect_s": "s",
    "sim.run_s": "s",
    "sim.events_dispatched": "count",
    "sim.host_us_per_event": "us",
    "sim.events.self_s": "s",
    "sim.events.timers_scheduled": "count",
    "sim.events.timer_dispatches": "count",
    "sim.node.self_s": "s",
    "sim.node.buffer_scans": "count",
    "sim.node.buffer_scanned": "count",
    "sim.node.scanned_per_scan": "ratio",
    "sim.node.alloc_mb": "MB",
    "protocols.self_s": "s",
    "core.self_s": "s",
    "core.relay_entries": "count",
    "core.relay_handoffs": "count",
    "core.handoff_ratio": "ratio",
    "core.housekeeping_scans": "count",
    "core.pending_scans": "count",
    "core.alloc_mb": "MB",
    "crypto.self_s": "s",
    "crypto.signatures": "count",
    "crypto.verifications": "count",
    "crypto.mac_hit_ratio": "ratio",
    "crypto.encoding_hit_ratio": "ratio",
    "crypto.cert_hit_ratio": "ratio",
    "telemetry.self_s": "s",
    "telemetry.spans_recorded": "count",
    "experiments.parallel.busy_s": "s",
    "experiments.parallel.utilization": "ratio",
    "experiments.cache.get_p50_ms": "ms",
    "experiments.cache.put_p50_ms": "ms",
    "experiments.cache.key_p50_us": "us",
    "experiments.cache.bytes_per_entry": "bytes",
    "experiments.cache.hits": "count",
    "experiments.cache.misses": "count",
    "sim.serialize.decode_p50_ms": "ms",
    "trace_overhead_ratio": "ratio",
}


class Report:
    """Metrics plus the operation tally of one benchmark run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: List[str] = []

    def metric(
        self, name: str, value: float, n: int, base: str = "", raw: Optional[float] = None
    ) -> None:
        unit = END_TO_END.get(name) or PER_LAYER[name]
        self.metrics[name] = {
            "value": float(value), "unit": unit, "n": n, "base": base, "raw": raw,
        }

    def op(self, label: str, ok: bool, raised: Optional[str] = None) -> None:
        """Count one operation; ``raised`` is its exception text, if any."""
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        known = label in KNOWN_DEFECTS
        if not known:
            self.correct = False
        self.notes.append(f"FAILED {label}: {raised or 'check mismatch'}"
                          + (" (known defect)" if known else ""))

    def emit(self, names: Iterable[str]) -> None:
        for note in self.notes:
            print(note)
        for name in names:
            entry = self.metrics[name]
            base = f"  (base: {entry['base']})" if entry["base"] else ""
            raw = f"  raw {entry['raw']:.6g}" if entry["raw"] is not None else ""
            print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']:<6}"
                  f" n={entry['n']}{raw}{base}")
        print(f"operations: {self.attempted} attempted, {self.failed} failed")
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {
                            "value": self.metrics[name]["value"],
                            "unit": self.metrics[name]["unit"],
                        }
                        for name in names
                    },
                }
            )
        )


def p90(values: Sequence[float]) -> float:
    """90th percentile of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Runner:
    """Starts the measuring interpreters and checks what they report."""

    def __init__(self, args: argparse.Namespace, root: str) -> None:
        self.args = args
        self.root = root
        self.started = time.monotonic()
        self.report = Report()
        with open(PINS) as handle:
            self.pins: Dict[str, str] = json.load(handle)[args.workload]
        self.check_pins = args.seed == DEFAULT_SEED and not args.smoke

    def spawn(self, **spec: Any) -> Dict[str, Any]:
        """Run one fresh interpreter on ``child.py``; returns its JSON."""
        spec.update(
            workload=self.args.workload,
            seed=self.args.seed,
            seconds=self.args.seconds,
            smoke=self.args.smoke,
            out=self.args.out,
        )
        spec.setdefault("trace", False)
        env = dict(os.environ)
        # One string-hash layout for every interpreter.
        env["PYTHONHASHSEED"] = "0"
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("benchmark deadline passed before a child could start")
        # Set-up is bracketed by this reading and the child's first one.
        before = hostspeed.reading()
        spec["spawned"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), json.dumps(spec)],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {spec} exited with code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_scaled"] = hostspeed.scaled(out["setup_s"], before, out["setup_after"])
        return out

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def digest_op(self, label: str, digests: Sequence[Optional[str]]) -> None:
        """One operation: every repetition of run ``label`` produced the
        same digest, and on the default seed it is the pinned one."""
        ok = None not in digests and len(set(digests)) == 1
        if self.check_pins:
            ok = ok and self.pins.get(label) == digests[0]
        self.report.op(f"{self.args.workload}/{label}", ok)

    def setup_samples(self, first: Dict[str, Any]) -> List[Dict[str, Any]]:
        samples = [first]
        while len(samples) < (1 if self.args.smoke else SETUP_SAMPLES):
            samples.append(self.spawn(setup_only=True))
        return samples

    def timed(
        self,
        name: str,
        raw: Sequence[float],
        scaled: Sequence[float],
        base: str = "",
        stat: Callable[[Sequence[float]], float] = statistics.median,
    ) -> None:
        """Report ``stat`` of the scaled samples, the raw one alongside."""
        self.report.metric(name, stat(scaled), len(scaled), base, stat(raw))

    def setup_metric(self, outs: Sequence[Dict[str, Any]]) -> None:
        self.timed("setup_s", [o["setup_s"] for o in outs], [o["setup_scaled"] for o in outs])

    def unmeasured(self, why: str) -> None:
        """No timing survived the failed operations: report without metrics."""
        self.report.correct = False
        self.report.notes.append(f"end-to-end metrics not measured: {why}")

    # -- workloads ------------------------------------------------------

    def paper_runs(self) -> None:
        out = self.spawn(trace=self.args.trace)
        passes = out["passes"]
        # One digest and one false-positive operation per run, over
        # every pass, so the tally does not grow with the pass count.
        for i, label in enumerate(passes[0]["labels"]):
            errors = [p["errors"][i] for p in passes if p["errors"][i] is not None]
            if errors:
                self.report.op(f"paper_runs/{label}", False, errors[0])
                continue
            self.digest_op(label, [p["digests"][i] for p in passes])
            if not label.endswith("/honest/0"):
                self.report.op(f"paper_runs/{label}/false_positives",
                               all(p["false_positives"][i] == 0 for p in passes))
        walls = [w for p in passes for w, e in zip(p["walls"], p["errors"]) if e is None]
        scaled = [w for p in passes for w, e in zip(p["scaled"], p["errors"]) if e is None]
        if self.args.trace:
            self.per_layer([out])
            return
        if not walls:
            self.unmeasured("every paper run failed")
            return
        raw_pass = [p["wall"] for p in passes]
        scaled_pass = [sum(p["scaled"]) for p in passes]
        runs = len(passes[0]["labels"])
        self.setup_metric(self.setup_samples(out))
        self.timed("wall_s", raw_pass, scaled_pass, f"{runs} runs per pass")
        self.timed("runs_per_s", [runs / w for w in raw_pass], [runs / w for w in scaled_pass])
        self.timed("run_p50_s", walls, scaled)
        self.timed("run_p90_s", walls, scaled, stat=p90)
        self.timed("warm_s", raw_pass[1:], scaled_pass[1:],
                   "passes after the first in the same process")
        contacts = [p["contacts"] for p in passes]
        self.timed(
            "contacts_per_s",
            [c / w for c, w in zip(contacts, raw_pass)],
            [c / w for c, w in zip(contacts, scaled_pass)],
        )
        self.report.metric("peak_rss_mb", out["peak_rss_mb"], 1)

    def figure_grid(self) -> None:
        out = self.spawn(trace=self.args.trace)
        runs = 24
        digests: Dict[str, List[str]] = {}
        for cycle in out["cycles"]:
            if cycle["errors"]:
                for _ in range(2 * runs + 1):
                    self.report.op("figure_grid/cycle", False, cycle["errors"][0])
                continue
            for label, digest in zip(cycle["labels"], cycle["digests"]):
                digests.setdefault(label, []).append(digest)
            # One operation per run and one for the figure, over every
            # warm pass, so the tally does not grow with the pass count.
            for i, (label, cold) in enumerate(zip(cycle["labels"], cycle["records"])):
                self.report.op(f"figure_grid/{label}/warm",
                               all(warm["records"][i] == cold for warm in cycle["warm"]))
            self.report.op("figure_grid/panels/warm",
                           all(warm["panels_equal"] for warm in cycle["warm"]))
        for label, repeated in digests.items():
            self.digest_op(label, repeated)
        if self.args.trace:
            self.per_layer([out])
            return
        cycles = [c for c in out["cycles"] if not c["errors"]]
        if not cycles:
            self.unmeasured("every figure_grid pass failed")
            return
        # The cold pass and its runs share one scale: the median reading
        # around the pass and in the pool workers.
        scale = [hostspeed.REFERENCE_S / c["cold_ref"] for c in cycles]
        colds = [c["cold"] for c in cycles]
        scaled_colds = [w * k for w, k in zip(colds, scale)]
        runs = [len(c["digests"]) for c in cycles]
        contacts = [c["ops"].get("ops.stream_contacts", 0) for c in cycles]
        self.setup_metric(self.setup_samples(out))
        self.timed("wall_s", colds, scaled_colds, "cold pass")
        self.timed("runs_per_s", [n / w for n, w in zip(runs, colds)],
                   [n / w for n, w in zip(runs, scaled_colds)])
        run_walls = [w for c in cycles for w in c["run_walls"]]
        scaled_runs = [w * k for c, k in zip(cycles, scale) for w in c["run_walls"]]
        self.timed("run_p50_s", run_walls, scaled_runs)
        self.timed("run_p90_s", run_walls, scaled_runs, stat=p90)
        self.timed("warm_s", [w["wall"] for c in cycles for w in c["warm"]],
                   [w["scaled"] for c in cycles for w in c["warm"]], "all cache hits")
        self.timed("contacts_per_s", [n / w for n, w in zip(contacts, colds)],
                   [n / w for n, w in zip(contacts, scaled_colds)])
        self.report.metric("peak_rss_mb", out["peak_rss_mb"], 1, "parent and pool workers")

    def stream_scale(self) -> None:
        report = self.report
        passes: List[Dict[str, Any]] = []
        setups: List[Dict[str, Any]] = []
        outs: List[Dict[str, Any]] = []
        while not passes or self.elapsed() + passes[-1]["elapsed"] <= self.args.seconds:
            began = self.elapsed()
            measured = {}
            for protocol in ("g2g_epidemic", "epidemic"):
                out = self.spawn(protocol=protocol, trace=self.args.trace)
                outs.append(out)
                setups.append(out)
                measured[protocol] = out["runs"]
            attempt = self.spawn(protocol="g2g_delegation_frequency", attempt_only=True)
            setups.append(attempt)
            measured["g2g_delegation_frequency"] = attempt["runs"]
            passes.append({"runs": measured, "elapsed": self.elapsed() - began})
            if self.args.trace:
                break
        # One operation per protocol (and one for G2G Epidemic's
        # delivery) over every run of every pass, so the tally does not
        # grow with the pass count.
        for protocol in passes[0]["runs"]:
            runs = [run for p in passes for run in p["runs"][protocol]]
            errors = [run["error"] for run in runs if run["error"] is not None]
            if errors:
                report.op(f"stream_scale/{protocol}", False, errors[0])
                continue
            if protocol == "g2g_delegation_frequency":
                report.op(f"stream_scale/{protocol}", True)
                continue
            self.digest_op(protocol, [run["digest"] for run in runs])
            if protocol == "g2g_epidemic":
                report.op("stream_scale/g2g_epidemic/delivered",
                          all(run["delivered"] > 0 for run in runs))
        if self.args.trace:
            self.per_layer(outs)
            return
        # Time only passes whose measured runs all completed; the
        # delegation attempt stays out of wall_s and peak_rss_mb.
        measured_protocols = ("g2g_epidemic", "epidemic")
        passes = [
            {k: p["runs"][k] for k in measured_protocols} for p in passes
            if all(run["error"] is None for k in measured_protocols for run in p["runs"][k])
        ]
        if not passes:
            self.unmeasured("no stream_scale pass without a failed run")
            return
        def walls(field: str, run: int) -> List[float]:
            return [sum(p[k][run][field] for k in p) for p in passes]

        cold, scaled_cold = walls("wall", 0), walls("scaled", 0)
        contacts = [sum(p[k][0]["contacts"] for k in p) for p in passes]
        self.setup_metric(setups)
        self.timed("wall_s", cold, scaled_cold, "g2g_epidemic + epidemic, fresh interpreters")
        self.timed("runs_per_s", [2 / w for w in cold], [2 / w for w in scaled_cold])
        run_walls = [p[k][0]["wall"] for p in passes for k in p]
        scaled_runs = [p[k][0]["scaled"] for p in passes for k in p]
        self.timed("run_p50_s", run_walls, scaled_runs)
        self.timed("run_p90_s", run_walls, scaled_runs, stat=p90)
        self.timed("warm_s", walls("wall", 1), walls("scaled", 1),
                   "second run in the same interpreters")
        self.timed("contacts_per_s", [c / w for c, w in zip(contacts, cold)],
                   [c / w for c, w in zip(contacts, scaled_cold)])
        report.metric(
            "peak_rss_mb",
            max(p[k][0]["rss_mb"] for p in passes for k in p),
            len(run_walls),
            "max over measuring interpreters",
        )

    # -- per-layer metrics ------------------------------------------------

    def per_layer(self, outs: List[Dict[str, Any]]) -> None:
        """Fold the traced children's spans, counters and allocations."""
        layers: Dict[str, Dict[str, float]] = {}
        ops: Dict[str, float] = {}
        alloc: Dict[str, float] = {}
        traced_wall = plain_wall = 0.0
        for out in outs:
            for name, entry in out["layers"].items():
                merged = layers.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                for field in ("count", "total_s", "self_s"):
                    merged[field] += entry[field]
                merged["p50_s"] = entry["p50_s"]
            for name, value in out.get("ops", {}).items():
                ops[name] = ops.get(name, 0) + value
            for cycle in out.get("cycles", [])[-1:]:
                for name, value in cycle.get("ops", {}).items():
                    ops[name] = ops.get(name, 0) + value
            for name, value in out.get("alloc_mb", {}).items():
                alloc[name] = max(alloc.get(name, 0.0), value)
            if "overhead" in out:
                traced_wall += out["overhead"][0]
                plain_wall += out["overhead"][1]
        figure = outs[0] if self.args.workload == "figure_grid" else None
        if figure is not None:
            plain, traced = figure["cycles"]
            traced_wall = traced["cold"] + sum(w["wall"] for w in traced["warm"])
            plain_wall = plain["cold"] + sum(w["wall"] for w in plain["warm"])
        warm_layers = figure["warm_layers"] if figure else {}

        def total(*names: str) -> Tuple[float, int]:
            found = [layers[n] for n in names if n in layers]
            return sum(e["total_s"] for e in found), sum(e["count"] for e in found)

        def self_time(layer: str) -> Tuple[float, int]:
            found = [e for n, e in layers.items() if n.split(":")[0] == layer]
            return sum(e["self_s"] for e in found), sum(e["count"] for e in found)

        def p50(table: Dict[str, Dict[str, float]], name: str, scale: float) -> Tuple[float, int]:
            entry = table.get(name)
            return (entry["p50_s"] * scale, entry["count"]) if entry else (0.0, 0)

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        report = self.report
        count = lambda field: ops.get(f"ops.{field}", 0)  # noqa: E731
        report.metric("traces.generate_s", *total("traces:trace_by_name"))
        report.metric("traces.window_s", *total(
            "traces:standard_window", "traces:EvaluationWindow.slice"))
        report.metric("traces.stream_chunk_s", *total("traces:SyntheticStreamSource.iter_chunks"))
        report.metric("traces.stream_contacts", count("stream_contacts"), 1)
        report.metric("traces.stream_chunks", count("stream_chunks"), 1)
        report.metric("social.detect_s", *total("social:CommunityMap.detect"))
        run_s, runs = total("sim:Simulation.run")
        report.metric("sim.run_s", run_s, runs)
        events = sum(v for k, v in ops.items() if k.startswith("engine."))
        report.metric("sim.events_dispatched", events, 1)
        engine_self = layers.get("sim:Simulation.run", {}).get("self_s", 0.0)
        report.metric("sim.host_us_per_event", ratio(engine_self * 1e6, events), runs,
                      "Simulation.run self time / events dispatched")
        for layer in ("sim.events", "sim.node", "protocols", "core", "crypto", "telemetry"):
            report.metric(f"{layer}.self_s", *self_time(layer))
        report.metric("sim.events.timers_scheduled", count("timers_scheduled"), 1)
        report.metric("sim.events.timer_dispatches", count("timer_dispatches"), 1)
        report.metric("sim.node.buffer_scans", count("buffer_scans"), 1)
        report.metric("sim.node.buffer_scanned", count("buffer_scanned"), 1)
        report.metric("sim.node.scanned_per_scan",
                      ratio(count("buffer_scanned"), count("buffer_scans")), 1,
                      f"{count('buffer_scans')} buffer scans")
        report.metric("sim.node.alloc_mb", alloc.get("sim.node", 0.0), len(alloc) and 1,
                      "tracemalloc live MB at run end, max over runs")
        report.metric("core.relay_entries", count("relay_entries"), 1)
        report.metric("core.relay_handoffs", count("relay_handoffs"), 1)
        report.metric("core.handoff_ratio",
                      ratio(count("relay_handoffs"), count("relay_entries")), 1,
                      f"{count('relay_entries')} relay entries")
        report.metric("core.housekeeping_scans", count("housekeeping_scans"), 1)
        report.metric("core.pending_scans", count("pending_scans"), 1)
        report.metric("core.alloc_mb", alloc.get("core", 0.0), len(alloc) and 1,
                      "tracemalloc live MB at run end, max over runs")
        report.metric("crypto.signatures", count("signatures"), 1)
        report.metric("crypto.verifications", count("verifications"), 1)
        report.metric("crypto.mac_hit_ratio",
                      ratio(count("mac_cache_hits"), count("verifications")), 1,
                      f"{count('verifications')} verifications")
        encodings = count("encodings") + count("encoding_cache_hits")
        report.metric("crypto.encoding_hit_ratio",
                      ratio(count("encoding_cache_hits"), encodings), 1,
                      f"{encodings} encoding requests")
        certs = count("cert_checks") + count("cert_cache_hits")
        report.metric("crypto.cert_hit_ratio", ratio(count("cert_cache_hits"), certs), 1,
                      f"{certs} certificate-chain checks")
        report.metric("telemetry.spans_recorded", count("spans_recorded"), 1)
        busy, executed = total("experiments.parallel:execute_request")
        report.metric("experiments.parallel.busy_s", busy, executed)
        if figure is not None:
            traced = figure["cycles"][1]
            workers, cold = traced["workers"], traced["cold"]
            hits, misses = traced["hits"], traced["misses"]
            per_entry = traced["bytes_per_entry"]
        else:
            workers, cold, hits, misses, per_entry = 1, 0.0, 0, 0, 0.0
        report.metric("experiments.parallel.utilization", ratio(busy, workers * cold), executed,
                      f"{workers} workers x {cold:.3f} s traced cold pass")
        report.metric("experiments.cache.get_p50_ms",
                      *p50(warm_layers, "experiments.cache:RunCache.get", 1e3))
        report.metric("experiments.cache.put_p50_ms",
                      *p50(layers, "experiments.cache:RunCache.put", 1e3))
        report.metric("experiments.cache.key_p50_us",
                      *p50(layers, "experiments.cache:RunRequest.cache_key", 1e6))
        report.metric("experiments.cache.bytes_per_entry", per_entry, 1)
        report.metric("experiments.cache.hits", hits, 1)
        report.metric("experiments.cache.misses", misses, 1)
        report.metric("sim.serialize.decode_p50_ms",
                      *p50(warm_layers, "sim.serialize:results_from_dict", 1e3))
        report.metric("trace_overhead_ratio", ratio(traced_wall, plain_wall), len(outs),
                      f"untraced {plain_wall:.3f} s")
        for layer, (_, moves) in LAYERS.items():
            report.notes.append(f"layer {layer}: self {self_time(layer)[0]:.3f} s;"
                                f" predicted to move {moves}")

    def run(self) -> int:
        getattr(self, self.args.workload)()
        if not self.args.trace:
            self.report.notes.append(
                "times and rates are scaled to the reference host speed (hostspeed.py);"
                " raw: as measured"
            )
        names = PER_LAYER if self.args.trace else END_TO_END
        self.report.emit([name for name in names if name in self.report.metrics])
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_runs", "figure_grid", "stream_scale"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up sample, no pinned digests")
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory for spans and scratch caches")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; run it from "
              "the root of a checkout", file=sys.stderr)
        return 2
    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    return Runner(args, root).run()


if __name__ == "__main__":
    sys.exit(main())
