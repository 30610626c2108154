"""Lint runner: discovery, caching, fan-out, project analysis.

The runner is what ``repro lint`` calls.  The original single-file
pipeline (expand paths, parse, run registered rules) is still here as
:func:`lint_paths` / :func:`lint_source`; :func:`lint_tree` is the
production entry point layering on top of it:

* **Robust diagnostics.**  A file that does not parse is reported as a
  normal ``E999`` diagnostic (``path:line:col: E999 ...``) instead of
  crashing the batch — a syntax error in one file must not hide
  findings in the rest, and must itself fail the lint.
* **Incremental cache.**  With a cache directory, per-file findings
  and project facts are keyed on content hashes
  (:mod:`repro.analysis.cache`); a warm run over an unchanged tree
  parses nothing.
* **Multiprocess fan-out.**  ``jobs > 1`` parses and checks uncached
  files in a process pool; results are deterministic regardless of
  worker count because everything is re-sorted afterwards.
* **Project mode.**  ``project=True`` assembles the per-file facts
  into a :class:`~repro.analysis.project.ProjectModel` and runs the
  whole-program rules G2G008–G2G015 on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .cache import LintCache, file_sha256
from .framework import (
    RULE_REGISTRY,
    LintModule,
    Violation,
    check_module,
)
from .project import (
    PROJECT_RULE_REGISTRY,
    ProjectModel,
    check_project,
    module_facts,
)

PathLike = Union[str, Path]

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})

#: Diagnostic id for unparseable files (pycodestyle's historical id for
#: syntax errors, which editors and CI annotators already understand).
SYNTAX_ERROR_ID = "E999"


def iter_python_files(paths: Iterable[PathLike]) -> List[Path]:
    """Expand files/directories to a sorted, de-duplicated file list."""
    found = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        elif path.suffix == ".py":
            found.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(found)


def _syntax_violation(path: str, exc: Exception) -> Violation:
    if isinstance(exc, SyntaxError):
        line = exc.lineno or 1
        column = (exc.offset or 0) or 1
        msg = exc.msg or "invalid syntax"
    else:
        # Undecodable or unreadable content (null bytes raise
        # SyntaxError on modern Pythons but ValueError on older ones).
        line, column, msg = 1, 1, str(exc)
    return Violation(
        rule_id=SYNTAX_ERROR_ID,
        path=path,
        line=line,
        column=column,
        message=f"file does not parse: {msg}",
    )


def _check_file(path: Path) -> Tuple[List[Violation], Optional[Dict[str, Any]]]:
    """Parse + single-file rules + facts for one file.

    Returns ``(violations, facts)``; an unparseable file yields one
    ``E999`` violation and no facts.
    """
    try:
        module = LintModule.from_path(path)
    except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
        return [_syntax_violation(str(path), exc)], None
    return check_module(module), module_facts(module)


def _process_file(path_str: str) -> Dict[str, Any]:
    """Process-pool worker: everything picklable, nothing shared."""
    path = Path(path_str)
    sha = file_sha256(path)
    violations, facts = _check_file(path)
    return {
        "path": path_str,
        "sha": sha,
        "violations": [
            {
                "rule_id": v.rule_id,
                "path": v.path,
                "line": v.line,
                "column": v.column,
                "message": v.message,
            }
            for v in violations
        ],
        "facts": facts,
    }


def lint_source(
    source: str,
    path: str = "<string>",
    rel: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint one source string (``rel`` positions it inside ``repro``)."""
    return check_module(
        LintModule.from_source(source, path, rel=rel), rule_ids=select
    )


def lint_paths(
    paths: Iterable[PathLike],
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint every Python file under ``paths`` (single-file rules only).

    Returns violations sorted by file then location.  A file that does
    not parse contributes a single ``E999`` diagnostic carrying the
    syntax error.
    """
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        try:
            module = LintModule.from_path(path)
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            violations.append(_syntax_violation(str(path), exc))
            continue
        violations.extend(check_module(module, rule_ids=select))
    return violations


@dataclass
class LintRun:
    """The result of one :func:`lint_tree` invocation."""

    violations: List[Violation]
    stats: Dict[str, int] = field(default_factory=dict)

    def stats_line(self) -> str:
        """``lint stats: files=N parsed=P cached=C ...`` for --stats."""
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
        return f"lint stats: {inner}"


def split_select(
    select: Optional[Sequence[str]],
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Partition a ``--select`` list into (single-file, project) ids.

    Raises ValueError for ids in neither registry.  ``None`` stays
    ``None`` (= everything).
    """
    if select is None:
        return None, None
    single: List[str] = []
    project: List[str] = []
    for rule_id in select:
        known = False
        if rule_id in RULE_REGISTRY:
            single.append(rule_id)
            known = True
        if rule_id in PROJECT_RULE_REGISTRY:
            project.append(rule_id)
            known = True
        if not known:
            all_ids = sorted(RULE_REGISTRY) + sorted(PROJECT_RULE_REGISTRY)
            raise ValueError(
                f"unknown rule {rule_id!r}; known: {', '.join(all_ids)}"
            )
    return single, project


def lint_tree(
    paths: Iterable[PathLike],
    select: Optional[Sequence[str]] = None,
    project: bool = False,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
) -> LintRun:
    """The full pipeline: cache -> (parallel) check -> project rules.

    Args:
        paths: files/directories to lint.
        select: rule ids to run (single-file and/or project); None
            means every registered rule (project ones only when
            ``project=True``).
        project: also run the whole-program rules G2G008–G2G015.
        jobs: process-pool width for uncached files (1 = in-process).
        cache_dir: directory for the incremental cache; None disables
            caching entirely (no hidden writes).
    """
    single_select, project_select = split_select(select)
    files = iter_python_files(paths)
    cache = LintCache(Path(cache_dir)) if cache_dir is not None else None

    stats = {"files": len(files), "parsed": 0, "cached": 0}
    per_file: Dict[str, List[Violation]] = {}
    facts_list: List[Dict[str, Any]] = []

    pending: List[Path] = []
    for path in files:
        if cache is not None:
            sha = file_sha256(path)
            entry = cache.lookup(path, sha)
            if entry is not None:
                stats["cached"] += 1
                per_file[str(path)] = cache.cached_violations(entry)
                if entry.get("facts") is not None:
                    facts_list.append(entry["facts"])
                continue
        pending.append(path)

    def _record(
        path: Path,
        sha: Optional[str],
        violations: List[Violation],
        facts: Optional[Dict[str, Any]],
    ) -> None:
        stats["parsed"] += 1
        per_file[str(path)] = violations
        if facts is not None:
            facts_list.append(facts)
        if cache is not None:
            cache.store(
                path,
                sha if sha is not None else file_sha256(path),
                violations,
                facts,
            )

    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(
                _process_file, [str(p) for p in pending]
            ):
                _record(
                    Path(result["path"]),
                    result["sha"],
                    [
                        Violation(
                            rule_id=d["rule_id"],
                            path=d["path"],
                            line=d["line"],
                            column=d["column"],
                            message=d["message"],
                        )
                        for d in result["violations"]
                    ],
                    result["facts"],
                )
    else:
        for path in pending:
            violations, facts = _check_file(path)
            _record(path, None, violations, facts)

    if cache is not None:
        cache.save()

    # Filter the (full-rule-set) per-file findings down to --select.
    # E999 always passes: a parse failure is a failure regardless of
    # which rules were requested.
    wanted = set(single_select) if single_select is not None else None
    violations: List[Violation] = []
    for path in files:
        for v in per_file.get(str(path), ()):
            if (
                wanted is None
                or v.rule_id in wanted
                or v.rule_id == SYNTAX_ERROR_ID
            ):
                violations.append(v)

    if project:
        model = ProjectModel(facts_list)
        project_violations = check_project(model, rule_ids=project_select)
        stats["project_findings"] = len(project_violations)
        violations.extend(project_violations)

    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule_id))
    return LintRun(violations=violations, stats=stats)


def render_report(violations: Sequence[Violation]) -> str:
    """Human-readable multi-line report with a trailing summary."""
    if not violations:
        return "no G2G violations"
    lines = [v.render() for v in violations]
    by_rule: dict = {}
    for v in violations:
        by_rule[v.rule_id] = by_rule.get(v.rule_id, 0) + 1
    summary = ", ".join(
        f"{count} x {rule_id}" for rule_id, count in sorted(by_rule.items())
    )
    lines.append(f"{len(violations)} violations ({summary})")
    return "\n".join(lines)
