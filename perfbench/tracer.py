"""Span tracing and allocation attribution for the benchmark's traced runs.

The tracer wraps the public functions of each layer of the ``repro``
package *from the outside*: nothing under ``src/`` is edited.  Each call
of a wrapped function records one span (name index, start, end, parent
span, run id) into compact in-memory arrays; the spans are written out
once, when the traced run ends.  A layer's self time is the duration of
its spans minus the time covered by their direct child spans.

Allocation attribution is a separate pass (``AllocProbe``): tracemalloc
with one frame per block, a snapshot at the end of every
``Simulation.run`` while the run's state is still alive, grouped into
layers by the allocating file.

``LAYERS`` is the prediction table: which functions each layer's spans
come from, and which end-to-end metric on which workload a change to
that layer should move.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import hostspeed

#: layer -> (module, qualified names of the functions traced, prediction).
#: A qualified name ``*.name`` traces ``name`` on every class of the
#: module's family that defines it itself (see ``_CLASS_FAMILIES``).
LAYERS: Dict[str, Tuple[Tuple[Tuple[str, str], ...], str]] = {
    "traces": (
        (
            ("repro.traces.presets", "trace_by_name"),
            ("repro.traces.presets", "standard_window"),
            ("repro.traces.windows", "EvaluationWindow.slice"),
            ("repro.traces.stream", "SyntheticStreamSource.iter_chunks"),
        ),
        "setup_s on paper_runs/figure_grid; contacts_per_s on stream_scale",
    ),
    "social": (
        (("repro.social.communities", "CommunityMap.detect"),),
        "setup_s on paper_runs",
    ),
    "sim": (
        (("repro.sim.engine", "Simulation.run"),),
        "run_p50_s on paper_runs; wall_s on stream_scale",
    ),
    "sim.events": (
        (
            ("repro.sim.events", "EventQueue.push"),
            ("repro.sim.events", "EventQueue.pop"),
            ("repro.sim.events", "Scheduler.schedule"),
            ("repro.sim.events", "Scheduler.fire"),
        ),
        "wall_s on stream_scale",
    ),
    "sim.node": (
        (
            ("repro.sim.node", "NodeState.store"),
            ("repro.sim.node", "NodeState.relay_candidates"),
            ("repro.sim.node", "NodeState.live_copies"),
            ("repro.sim.node", "NodeState.has_seen"),
            ("repro.sim.node", "NodeState.flush"),
        ),
        "peak_rss_mb and wall_s on stream_scale",
    ),
    "protocols": (
        (
            ("repro.protocols", "*.on_contact_start"),
            ("repro.protocols", "*.on_contact_end"),
            ("repro.protocols", "*.on_message_generated"),
            ("repro.protocols", "*.on_timer"),
            ("repro.protocols", "*.finalize"),
            ("repro.protocols.quality", "QualityTracker.encounter"),
            ("repro.protocols.quality", "QualityTracker.current"),
        ),
        "wall_s on stream_scale (epidemic) and on figure_grid",
    ),
    "core": (
        (
            ("repro.core", "*.on_contact_start"),
            ("repro.core", "*.on_contact_end"),
            ("repro.core", "*.on_message_generated"),
            ("repro.core", "*.on_timer"),
            ("repro.core", "*.finalize"),
        ),
        "run_p50_s on paper_runs; wall_s on stream_scale",
    ),
    "crypto": (
        (
            ("repro.crypto", "*.sign"),
            ("repro.crypto", "*.verify"),
            ("repro.crypto", "*.verify_batch"),
            ("repro.crypto", "*.heavy_hmac"),
            ("repro.crypto", "*.encrypt"),
            ("repro.crypto", "*.decrypt"),
        ),
        "run_p50_s on paper_runs",
    ),
    "telemetry": (
        (
            ("repro.telemetry.run", "RunTelemetry.finalize_run"),
            ("repro.telemetry.spans", "SpanRecorder.begin"),
            ("repro.telemetry.spans", "SpanRecorder.end"),
            ("repro.telemetry.export", "TelemetryCollector.add"),
        ),
        "run_p50_s on paper_runs",
    ),
    "experiments.parallel": (
        (("repro.experiments.parallel", "execute_request"),),
        "wall_s, runs_per_s on figure_grid",
    ),
    "experiments.cache": (
        (
            ("repro.experiments.cache", "RunCache.get"),
            ("repro.experiments.cache", "RunCache.put"),
            ("repro.experiments.parallel", "RunRequest.cache_key"),
        ),
        "warm_s (reads) and wall_s (writes) on figure_grid",
    ),
    "sim.serialize": (
        (("repro.sim.serialize", "results_from_dict"),),
        "warm_s on figure_grid",
    ),
}

#: Class families behind the ``*.name`` wildcards: the protocol classes
#: the catalog and its bases define, and the crypto provider tiers.
_CLASS_FAMILIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "repro.protocols": (
        ("repro.protocols.base", "ForwardingProtocol"),
        ("repro.protocols.epidemic", "EpidemicForwarding"),
        ("repro.protocols.delegation", "DelegationForwarding"),
    ),
    "repro.core": (
        ("repro.core.g2g_base", "Give2GetBase"),
        ("repro.core.g2g_epidemic", "G2GEpidemicForwarding"),
        ("repro.core.g2g_delegation", "G2GDelegationForwarding"),
    ),
    "repro.crypto": (
        ("repro.crypto.provider", "CryptoProvider"),
        ("repro.crypto.provider", "RealCryptoProvider"),
        ("repro.crypto.provider", "SimulatedCryptoProvider"),
        ("repro.crypto.accounting", "AccountingCryptoProvider"),
    ),
}

#: Layers by allocating file, for the tracemalloc pass (first match wins).
_FILE_LAYERS = (
    ("repro/sim/events.py", "sim.events"),
    ("repro/sim/node.py", "sim.node"),
    ("repro/sim/serialize.py", "sim.serialize"),
    ("repro/experiments/parallel.py", "experiments.parallel"),
    ("repro/experiments/cache.py", "experiments.cache"),
    ("repro/sim/", "sim"),
    ("repro/traces/", "traces"),
    ("repro/social/", "social"),
    ("repro/protocols/", "protocols"),
    ("repro/core/", "core"),
    ("repro/crypto/", "crypto"),
    ("repro/telemetry/", "telemetry"),
)

#: Name of the execute_request span: in a pool worker it roots the
#: spans that travel back to the parent on the result object.
WORKER_ROOT = "experiments.parallel:execute_request"
_SPANS_ATTR = "_perfbench_spans"


def file_layer(filename: str) -> str:
    """Layer owning an allocating source file ("other" outside repro)."""
    path = filename.replace(os.sep, "/")
    for fragment, layer in _FILE_LAYERS:
        if fragment in path:
            return layer
    return "other"


def _targets(layers: Iterable[str]) -> List[Tuple[str, Any, str, str]]:
    """Resolve ``(layer, owner, attribute, span name)`` for the layers.

    ``owner`` is a class or module whose own ``__dict__`` defines the
    attribute; wildcard entries expand over their class family.
    """
    found: List[Tuple[str, Any, str, str]] = []
    for layer in layers:
        for module_name, qualname in LAYERS[layer][0]:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name == "*":
                owners = [
                    getattr(importlib.import_module(mod), cls)
                    for mod, cls in _CLASS_FAMILIES[module_name]
                ]
            elif owner_name:
                owners = [
                    getattr(importlib.import_module(module_name), owner_name)
                ]
            else:
                owners = [importlib.import_module(module_name)]
            for owner in owners:
                if attr not in vars(owner):
                    continue
                name = f"{layer}:{owner.__name__}.{attr}" if owner_name else f"{layer}:{attr}"
                found.append((layer, owner, attr, name))
    return found


class Tracer:
    """In-memory span store plus the patches that feed it.

    Spans live in parallel typed arrays (about 32 bytes a span); a
    span's parent is the index of the span open when it started, or -1.
    """

    def __init__(self, readings: bool = False) -> None:
        #: With ``readings``, each pool worker takes a host-speed reading
        #: before every run it executes; they land here on harvest.
        self.readings = readings
        self.worker_readings: List[float] = []
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.stack: List[int] = []
        self.run_id = 0
        self._next_run = 0
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def intern(self, name: str) -> int:
        """Stable index of a span name."""
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
        return index

    def new_run(self) -> int:
        """Start a new run id; later spans carry it."""
        self._next_run += 1
        self.run_id = self._next_run
        return self.run_id

    def open(self, name_index: int) -> int:
        """Open a span now; returns its index."""
        span = len(self.start)
        self.name.append(name_index)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(span)
        return span

    def close(self, span: int) -> None:
        """Close the innermost open span."""
        self.end[span] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (benchmark-level phases)."""
        span = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(span)

    # -- patching -----------------------------------------------------

    def install(self, layers: Iterable[str] = tuple(LAYERS)) -> None:
        """Wrap every traced function of ``layers``; ``uninstall`` undoes it."""
        for layer, owner, attr, name in _targets(layers):
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._patch(owner, attr, raw, wrapped)
            if inspect.ismodule(owner):
                # Functions imported by name elsewhere in the package.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and vars(module).get(attr) is raw
                    ):
                        self._patch(module, attr, raw, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        index = self.intern(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args: Any, **kwargs: Any) -> Any:
                # One span per resumption: each produced item is timed
                # where the consumer pulls it.
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer.open(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    yield item

            return generator

        if name == WORKER_ROOT:

            @functools.wraps(fn)
            def worker_root(*args: Any, **kwargs: Any) -> Any:
                if os.getpid() == tracer._pid:
                    span = tracer.open(index)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.close(span)
                # A forked pool worker: record into fresh arrays and
                # ship them home on the result object.
                tracer.reset()
                reading = hostspeed.reading(1) if tracer.readings else None
                span = tracer.open(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                bundle = tracer.export()
                bundle["reading"] = reading
                setattr(result, _SPANS_ATTR, bundle)
                return result

            return worker_root

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    # -- worker round trip ----------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span (keeps names and patches)."""
        for column in (self.name, self.start, self.end, self.parent, self.run):
            del column[:]
        self.stack = []

    def export(self) -> Dict[str, Any]:
        """Picklable copy of the recorded spans."""
        return {
            "names": list(self.names),
            "name": array("i", self.name),
            "start": array("d", self.start),
            "end": array("d", self.end),
            "parent": array("q", self.parent),
        }

    def harvest(self, result: Any) -> None:
        """Adopt the spans a pool worker attached to ``result``.

        The worker's root spans become children of the span open here,
        and the whole bundle gets one fresh run id.
        """
        bundle = result.__dict__.pop(_SPANS_ATTR, None)
        if bundle is None:
            return
        if bundle["reading"] is not None:
            self.worker_readings.append(bundle["reading"])
        remap = [self.intern(name) for name in bundle["names"]]
        offset = len(self.start)
        root = self.stack[-1] if self.stack else -1
        self._next_run += 1
        run_id = self._next_run
        for i in range(len(bundle["start"])):
            parent = bundle["parent"][i]
            self.name.append(remap[bundle["name"][i]])
            self.start.append(bundle["start"][i])
            self.end.append(bundle["end"][i])
            self.parent.append(parent + offset if parent >= 0 else root)
            self.run.append(run_id)

    # -- analysis -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every span to an ``.npz`` file (arrays plus names)."""
        import numpy as np

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int32),
        )

    def summary(self, first: int = 0) -> Dict[str, Dict[str, Any]]:
        """Per span name: count, inclusive seconds, self seconds, and the
        durations of every span (for percentiles), over the spans from
        index ``first`` on.

        Inclusive time of a name counts only its outermost spans, so a
        function that calls itself is not double counted.
        """
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        same_as_parent = np.zeros(len(duration), dtype=bool)
        same_as_parent[nested] = name[parent[nested]] == name[nested]
        selected = np.arange(len(duration)) >= first
        out: Dict[str, Dict[str, Any]] = {}
        for index, label in enumerate(self.names):
            mask = (name == index) & selected
            if not mask.any():
                continue
            out[label] = {
                "count": int(mask.sum()),
                "total_s": float(duration[mask & ~same_as_parent].sum()),
                "self_s": float(own[mask].sum()),
                "durations": duration[mask],
            }
        return out


def maybe_span(tracer: Optional[Tracer], name: str) -> Any:
    """A span on ``tracer``, or a no-op context when there is none."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


class AllocProbe:
    """tracemalloc attribution: live bytes per layer at each run's end.

    While installed, every ``Simulation.run`` is followed by a snapshot
    taken before the simulation's state is released; the probe keeps
    each layer's maximum over runs.
    """

    def __init__(self) -> None:
        self.peak_bytes: Dict[str, int] = {}
        self._original: Any = None

    def __enter__(self) -> "AllocProbe":
        from repro.sim.engine import Simulation

        self._original = original = Simulation.run
        probe = self

        @functools.wraps(original)
        def run(sim: Any) -> Any:
            results = original(sim)
            probe.record(tracemalloc.take_snapshot())
            return results

        Simulation.run = run  # type: ignore[method-assign]
        tracemalloc.start(1)
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.sim.engine import Simulation

        tracemalloc.stop()
        Simulation.run = self._original  # type: ignore[method-assign]

    def record(self, snapshot: "tracemalloc.Snapshot") -> None:
        """Fold one end-of-run snapshot into the per-layer maxima."""
        totals: Dict[str, int] = {}
        for stat in snapshot.statistics("filename"):
            layer = file_layer(stat.traceback[0].filename)
            totals[layer] = totals.get(layer, 0) + stat.size
        for layer, size in totals.items():
            self.peak_bytes[layer] = max(self.peak_bytes.get(layer, 0), size)
