"""Whole-program flow rules G2G008–G2G015.

Single-file rules catch a ``random.random()`` where it is written;
these catch the cross-module shapes that poison replayability one hop
away from the offending line:

=======  ==============================================================
G2G008   nondeterminism taint: a function reachable from the
         deterministic core transitively hits an unseeded RNG /
         wall-clock / OS-entropy sink without taking a seeded-RNG or
         context parameter
G2G009   counter-schema conformance: ``COUNTERS.x += `` sites vs. the
         ``HOT_MODULE_COUNTERS`` declarations and the ``FIELDS``
         schema that the telemetry ``ops.*`` export mirrors, checked
         in both directions
G2G010   layering: forbidden import edges out of the deterministic
         core (``core//sim//crypto//…`` must not import experiment
         orchestration, telemetry export, or the CLI), plus
         ``repro.api`` facade drift vs. its pinned ``__all__``
G2G011   cache-key completeness: a ``RunRequest``/``ScenarioSpec``
         field that can affect execution but is never folded into the
         cache key
G2G012   scheduler discipline: raw event-time arithmetic/comparisons
         or direct ``Event``/``TimerHandle`` construction outside
         ``sim/events.py``
G2G013   streaming discipline: ``.contacts`` materialization outside
         ``repro.traces`` — everything downstream of the trace layer
         must pull contacts through a ``ContactSource``
G2G014   one construction site: ``Simulation(...)`` built outside
         ``sim/`` and the run builder in ``experiments/parallel.py``
G2G015   unreached module: no import chain from an entry point (the
         CLI, the facade, a ``__main__`` script, an example or a
         benchmark) reaches it; package re-exports do not count
=======  ==============================================================

Each rule reads only :class:`~repro.analysis.project.ProjectModel`
facts — never the AST — so a fully cached lint run executes them
without parsing a single file.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .framework import Violation
from .project import (
    ProjectModel,
    ProjectRule,
    register_project_rule,
)

#: Packages forming the deterministic core: replayable, digest-stable,
#: forbidden from importing orchestration or export code (G2G010) and
#: the reachability roots for taint analysis (G2G008).
CORE_PACKAGES = (
    "core", "sim", "crypto", "protocols", "traces", "adversaries", "social",
)

#: Import prefixes the deterministic core must not depend on.  The
#: telemetry *recording* API (spans, run aggregation) is allowed — the
#: core emits telemetry — but the exporter, experiment orchestration,
#: scenario campaign code, metrics reporting, the CLI, and the public
#: facade are all one-way consumers of the core.
FORBIDDEN_FOR_CORE = (
    "repro.experiments",
    "repro.scenarios",
    "repro.metrics",
    "repro.cli",
    "repro.api",
    "repro.telemetry.export",
)

#: Parameter names that mark a function as receiving its randomness /
#: time from the caller, which discharges G2G008: the *caller* owns
#: seeding, and the callee is deterministic given its arguments.
CONTEXT_PARAMS = frozenset(
    {"rng", "seed", "context", "ctx", "random_state", "clock", "now"}
)

#: Where the counter schema lives and which dataclasses must fold every
#: behavior-affecting field into their cache key.  Keys are
#: package-relative paths so fixture trees exercise the same rules.
COUNTER_SCHEMA_MODULE = "perf/counters.py"
CACHE_KEY_CLASSES: Dict[Tuple[str, str], Tuple[str, Tuple[str, ...]]] = {
    # (rel, class) -> (key-building method, fields exempt because they
    # are pure labels that never reach execution)
    ("experiments/parallel.py", "RunRequest"): ("cache_key", ()),
    ("scenarios/spec.py", "ScenarioSpec"): ("requests", ("name",)),
}

#: The scheduler module: sole sanctioned owner of event-time math and
#: Event/TimerHandle construction (G2G012).
SCHEDULER_REL = "sim/events.py"

#: The only package allowed to touch ``.contacts`` directly (G2G013):
#: the trace layer owns materialization; everything downstream streams.
CONTACTS_OWNER_PACKAGE = "traces"

#: Where a ``Simulation`` may be constructed (G2G014): the sim package
#: itself and the one run builder every run path goes through.
SIMULATION_OWNER_PACKAGE = "sim"
RUN_BUILDER_REL = "experiments/parallel.py"

#: Entry-point modules G2G015 walks the import graph from, besides
#: every ``__main__``-guarded module and every linted file outside the
#: package (examples, benchmarks).
ENTRY_MODULES = frozenset({"repro.cli", "repro.api", "repro.__main__"})


def _function_index(
    project: ProjectModel,
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """``(rel, qualname) -> function entry`` over the whole model."""
    index: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for entry in project.modules:
        for qual, fn in entry["functions"].items():
            index[(entry["rel"], qual)] = fn
    return index


@register_project_rule
class NondeterminismTaint(ProjectRule):
    """G2G008: core-reachable functions must not hit entropy sinks.

    Taint propagates backwards through the conservative call graph
    from every direct sink call (unseeded ``random.*``, wall clock,
    ``os.urandom``/``uuid4``/``secrets``).  A function is *exempt* —
    and stops propagation — when it takes a seeded-RNG/context
    parameter (``rng``, ``seed``, ``ctx``, …): its determinism is the
    caller's responsibility and seeding is auditable at the call site.
    Only functions defined in the deterministic core packages are
    reported; a tainted helper in ``perf/`` is flagged at the core
    function that calls it, where the leak enters replayed territory.
    """

    rule_id = "G2G008"
    summary = (
        "function reachable from the deterministic core transitively"
        " hits an RNG/wall-clock/entropy sink without a seeded-RNG or"
        " context parameter"
    )

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        functions = _function_index(project)
        exempt: Set[Tuple[str, str]] = {
            node
            for node, fn in functions.items()
            if CONTEXT_PARAMS.intersection(fn["params"])
        }

        # Forward edges, resolved once; exempt callees absorb taint.
        callees: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        for entry in project.modules:
            for qual, fn in entry["functions"].items():
                node = (entry["rel"], qual)
                resolved = []
                for target in fn["calls"]:
                    callee = project.resolve_callee(entry, qual, target)
                    if callee is not None and callee not in exempt:
                        resolved.append(callee)
                callees[node] = resolved

        # Seed taint at direct sinks, then propagate to callers.
        taint: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        work: List[Tuple[str, str]] = []
        for node, fn in functions.items():
            if node in exempt:
                continue
            if fn["sinks"]:
                sink, line = fn["sinks"][0]
                taint[node] = (f"calls {sink} at line {line}",)
                work.append(node)

        callers: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        for node, outs in callees.items():
            for callee in outs:
                callers.setdefault(callee, []).append(node)

        while work:
            node = work.pop()
            chain = taint[node]
            for caller in callers.get(node, ()):
                if caller in taint or caller in exempt:
                    continue
                taint[caller] = (f"calls {node[1]} ({node[0]})",) + chain
                work.append(caller)

        for node in sorted(taint):
            rel, qual = node
            entry = project.by_rel.get(rel)
            if entry is None:
                continue
            package = entry["package"]
            if package not in CORE_PACKAGES:
                continue
            fn = functions[node]
            # Direct sinks inside the core are G2G001/G2G002 territory;
            # this rule owns the *transitive* leaks they cannot see.
            if fn["sinks"]:
                continue
            chain = " -> ".join(taint[node])
            yield self.flag(
                entry,
                fn["line"],
                f"{qual} transitively reaches a nondeterminism sink"
                f" ({chain}); thread a seeded rng/context parameter"
                f" through or seed at this boundary",
            )


@register_project_rule
class CounterSchemaConformance(ProjectRule):
    """G2G009: COUNTERS increments vs. the declared schema, both ways.

    Direction one: every ``COUNTERS.x += `` site must name a field in
    ``FIELDS`` (the telemetry ``ops.*`` export iterates ``FIELDS``, so
    an undeclared increment silently never exports) and, in a module
    listed in ``HOT_MODULE_COUNTERS``, must be declared for that
    module.  Direction two: every field a ``HOT_MODULE_COUNTERS``
    entry declares must actually be incremented by its module, and the
    mapped module must exist — otherwise the op-budget perf tests
    assert against counters that never move.
    """

    rule_id = "G2G009"
    summary = (
        "COUNTERS increments out of sync with HOT_MODULE_COUNTERS or"
        " the FIELDS ops.* export schema"
    )

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        schema = project.by_rel.get(COUNTER_SCHEMA_MODULE)
        if schema is None or not schema["counter_decls"]:
            return
        decls = schema["counter_decls"]
        fields = set(decls.get("fields", ()))
        hot_map: Dict[str, List[str]] = decls.get("hot_map", {})

        for entry in project.modules:
            declared = set(hot_map.get(entry["rel"], ()))
            for field, line in sorted(entry["counters"].items()):
                if fields and field not in fields:
                    yield self.flag(
                        entry,
                        line,
                        f"COUNTERS.{field} is not in FIELDS — the"
                        f" telemetry ops.* export will never see it;"
                        f" add it to the schema in perf/counters.py",
                    )
                elif entry["rel"] in hot_map and field not in declared:
                    yield self.flag(
                        entry,
                        line,
                        f"COUNTERS.{field} incremented here but not"
                        f" declared for {entry['rel']} in"
                        f" HOT_MODULE_COUNTERS",
                    )

        hot_line = decls.get("hot_line", 1)
        for rel in sorted(hot_map):
            owner = project.by_rel.get(rel)
            if owner is None:
                yield self.flag(
                    schema,
                    hot_line,
                    f"HOT_MODULE_COUNTERS maps {rel!r} but no such"
                    f" module exists in this tree",
                )
                continue
            missing = sorted(set(hot_map[rel]) - set(owner["counters"]))
            for field in missing:
                yield self.flag(
                    schema,
                    hot_line,
                    f"HOT_MODULE_COUNTERS declares {field!r} for"
                    f" {rel} but that module never increments it —"
                    f" its op budget measures nothing",
                )


@register_project_rule
class LayeringViolation(ProjectRule):
    """G2G010: one-way dependency flow out of the deterministic core.

    The simulation core must stay importable (and replayable) without
    experiment orchestration, campaign code, metrics reporting, the
    exporter, the CLI, or the facade.  Also checks the facade itself:
    every name in ``repro.api``'s ``__all__`` must be defined or
    imported there, and every public top-level definition must be in
    ``__all__`` — drift in either direction breaks the pinned surface.
    """

    rule_id = "G2G010"
    summary = (
        "forbidden import edge out of the deterministic core, or"
        " repro.api facade drift vs. its pinned __all__"
    )

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        for entry in project.modules:
            if entry["package"] in CORE_PACKAGES:
                # One report per import line: `from X import y` records
                # both the module and the name edge, which would
                # otherwise double-flag the same statement.
                flagged: Set[int] = set()
                for target, line in entry["imports"]:
                    if line in flagged:
                        continue
                    for forbidden in FORBIDDEN_FOR_CORE:
                        if target == forbidden or target.startswith(
                            forbidden + "."
                        ):
                            flagged.add(line)
                            yield self.flag(
                                entry,
                                line,
                                f"core-layer module imports {target}"
                                f" — the deterministic core must not"
                                f" depend on orchestration/export"
                                f" code",
                            )
                            break

        facade = project.by_rel.get("api.py")
        if facade is not None and facade["dunder_all"] is not None:
            pinned = set(facade["dunder_all"])
            defined = {name for name, _ in facade["public_defs"]}
            imported = set(facade["import_names"])
            for name in sorted(pinned - defined - imported):
                yield self.flag(
                    facade,
                    1,
                    f"repro.api __all__ exports {name!r} but the"
                    f" module neither defines nor imports it",
                )
            for name, line in sorted(facade["public_defs"]):
                if name == "__all__" or name in pinned:
                    continue
                yield self.flag(
                    facade,
                    line,
                    f"repro.api defines public {name!r} outside the"
                    f" pinned __all__ surface — export it or make it"
                    f" private",
                )


@register_project_rule
class CacheKeyCompleteness(ProjectRule):
    """G2G011: every behavior-affecting spec field reaches the key.

    ``RunRequest.cache_key`` / ``ScenarioSpec.requests`` must read
    every dataclass field (directly or through helper methods on the
    same class, followed transitively).  A field that never flows into
    the key means two semantically different runs can collide in the
    results cache — the worst kind of wrong answer, a *confident* one.
    """

    rule_id = "G2G011"
    summary = (
        "dataclass field on a cached spec (RunRequest/ScenarioSpec)"
        " never folded into its cache key"
    )

    def _reachable_refs(
        self, entry: Dict[str, Any], cls_name: str, method: str
    ) -> Set[str]:
        """self-attribute reads reachable from ``cls.method``."""
        refs: Set[str] = set()
        seen: Set[str] = set()
        stack = [method]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            fn = entry["functions"].get(f"{cls_name}.{name}")
            if fn is None:
                continue
            refs.update(fn["self_refs"])
            for target in fn["calls"]:
                if target.startswith("self."):
                    stack.append(target[len("self."):])
        return refs

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        for (rel, cls_name), (method, exempt) in sorted(
            CACHE_KEY_CLASSES.items()
        ):
            entry = project.by_rel.get(rel)
            if entry is None:
                continue
            cls = entry["classes"].get(cls_name)
            if cls is None:
                continue
            if f"{cls_name}.{method}" not in entry["functions"]:
                yield self.flag(
                    entry,
                    cls["line"],
                    f"{cls_name} is a cached spec but has no"
                    f" {method}() to build its key",
                )
                continue
            refs = self._reachable_refs(entry, cls_name, method)
            for field, line in cls["fields"]:
                if field in exempt or field in refs:
                    continue
                yield self.flag(
                    entry,
                    line,
                    f"{cls_name}.{field} never flows into"
                    f" {method}() — two runs differing only in"
                    f" {field!r} would collide in the results cache",
                )


@register_project_rule
class SchedulerDiscipline(ProjectRule):
    """G2G012: event-time math stays inside ``sim/events.py``.

    Raw arithmetic or comparisons on ``event.time`` / ``timer.time`` /
    ``handle.time`` outside the scheduler — or direct ``Event`` /
    ``TimerHandle`` construction — re-implements ordering the
    scheduler already defines, and any disagreement (tie-breaking,
    clamping, cancellation) silently diverges replays.  Use
    ``Scheduler.schedule`` / ``dispatch_until`` instead.
    """

    rule_id = "G2G012"
    summary = (
        "raw event-time arithmetic/comparison or Event/TimerHandle"
        " construction outside sim/events.py"
    )

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        for entry in project.modules:
            if entry["rel"] == SCHEDULER_REL:
                continue
            if entry["package"] not in CORE_PACKAGES:
                continue
            for line, col, expr in entry["event_time_ops"]:
                yield self.flag(
                    entry,
                    line,
                    f"raw event-time expression on {expr!r} outside"
                    f" the scheduler; route ordering through"
                    f" sim/events.py",
                    column=col + 1,
                )
            for line, col, cls_name in entry["event_constructions"]:
                yield self.flag(
                    entry,
                    line,
                    f"direct {cls_name} construction outside the"
                    f" scheduler; use Scheduler.schedule",
                    column=col + 1,
                )


@register_project_rule
class StreamingDiscipline(ProjectRule):
    """G2G013: ``.contacts`` materialization stays inside the trace layer.

    The engine scaled to 1M-node universes by pulling contacts through
    the :class:`~repro.traces.stream.ContactSource` choke point — the
    event heap holds only the in-flight frontier, never the full
    contact list.  A ``.contacts`` read anywhere outside
    ``repro.traces`` re-materializes the trace and silently reverts
    that memory bound (streaming sources do not even *have* a trace to
    materialize: ``source.trace`` is None for them).  Analysis-style
    consumers that genuinely need the aggregate view carry a
    ``# g2g: allow(G2G013: ...)`` pragma.
    """

    rule_id = "G2G013"
    summary = (
        ".contacts materialization outside repro.traces — stream"
        " through a ContactSource (iter_contacts) instead"
    )

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        for entry in project.modules:
            if entry["package"] == CONTACTS_OWNER_PACKAGE:
                continue
            for line, col in entry.get("contacts_reads", ()):
                yield self.flag(
                    entry,
                    line,
                    ".contacts read outside repro.traces materializes"
                    " the full contact list; pull contacts through a"
                    " ContactSource (iter_contacts) so streaming"
                    " universes stay bounded-memory",
                    column=col + 1,
                )


@register_project_rule
class RunConstructionSite(ProjectRule):
    """G2G014: a ``Simulation`` is built only by the run builder.

    How a run is assembled — placement, churn and energy-budget
    expansion over the node universe — is decided once, in
    :func:`repro.experiments.parallel.simulate`; a hand-built
    ``Simulation`` elsewhere re-derives it and can drift silently.
    """

    rule_id = "G2G014"
    summary = (
        "Simulation(...) constructed outside sim/ and the run builder"
        " in experiments/parallel.py"
    )

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        for entry in project.modules:
            if (
                entry["package"] == SIMULATION_OWNER_PACKAGE
                or entry["rel"] == RUN_BUILDER_REL
            ):
                continue
            for line, col in entry.get("simulation_constructions", ()):
                yield self.flag(
                    entry,
                    line,
                    "Simulation constructed outside the run builder; build"
                    " runs with repro.experiments.parallel.simulate",
                    column=col + 1,
                )


@register_project_rule
class UnreachedModule(ProjectRule):
    """G2G015: every module is imported, transitively, by an entry point.

    Roots are ``repro.cli``, ``repro.api``, ``repro.__main__``, every
    module with a top-level ``if __name__ == "__main__":`` and every
    linted file outside the package.  Import edges are followed from
    each reached module; importing a module also reaches its parent
    packages, as Python runs their ``__init__``.  A package
    ``__init__`` re-export (an import bound to a name in its
    ``__all__``) is not a use: it is followed only when a reached module
    imports that name from the package.  Code no entry point reaches
    still costs tests, docs and run-cache invalidations, and nothing
    would notice if it broke; delete it or wire it into a real path.
    Lint the package together with its entry-point trees
    (``repro lint src examples benchmarks --project``), or modules only
    those trees use are flagged.
    """

    rule_id = "G2G015"
    summary = (
        "module not reached by imports from any entry point (cli, api,"
        " __main__, a __main__-guarded module, examples, benchmarks)"
    )

    def _module_of(self, project: ProjectModel, target: str) -> Optional[str]:
        """The project module an import target lands in, or None.

        ``pkg.mod`` is the module itself; ``pkg.mod.name`` is ``pkg.mod``
        unless ``pkg.mod`` imported ``name`` from elsewhere, in which case
        the name's origin is followed (how a package re-export resolves).
        """
        seen: Set[str] = set()
        while target not in seen:
            seen.add(target)
            if target in project.by_module:
                return target
            head, _, name = target.rpartition(".")
            entry = project.by_module.get(head)
            if entry is None:
                return None
            origin = entry["import_names"].get(name)
            if origin is None:
                return head
            target = origin
        return None

    def check(self, project: ProjectModel) -> Iterator[Violation]:
        work: List[str] = [
            target for entry in project.outside for target, _ in entry["imports"]
        ]
        work.extend(
            entry["module"]
            for entry in project.modules
            if entry["module"] in ENTRY_MODULES or entry["main_guard"]
        )
        reached: Set[str] = set()
        while work:
            module = self._module_of(project, work.pop())
            if module is None:
                continue
            parts = module.split(".")
            for depth in range(1, len(parts) + 1):
                name = ".".join(parts[:depth])
                entry = project.by_module.get(name)
                if entry is None or name in reached:
                    continue
                reached.add(name)
                skip = {tuple(edge) for edge in entry["reexports"]}
                work.extend(
                    target
                    for target, line in entry["imports"]
                    if (target, line) not in skip
                )

        for entry in project.modules:
            if entry["module"] in reached or entry["rel"].endswith(
                "__init__.py"
            ):
                continue
            yield self.flag(
                entry,
                1,
                f"{entry['module']} is not reached from any entry point"
                " (cli, api, __main__, a __main__-guarded module, examples,"
                " benchmarks); package re-exports do not count — delete it"
                " or import it where it is used",
            )
