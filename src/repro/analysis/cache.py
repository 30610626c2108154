"""Content-hash incremental cache for ``repro lint``.

The analyzer's cost is parsing and rule traversal; both depend only on
file *content* and the rule implementations.  The cache therefore keys
each file on its sha256 and the whole store on a fingerprint of the
analysis package's own sources — touch any rule and every entry is
invalid at once, no staleness heuristics.  Per file it persists:

* the single-file rule findings (post-pragma, full rule set — the
  runner filters ``--select`` afterwards, so one entry serves any
  selection), and
* the :func:`~repro.analysis.project.module_facts` dict, which is all
  the project rules (G2G008–G2G015) read.

A warm run over an unchanged tree thus hashes files, loads JSON, and
executes the project rules on cached facts — it never parses Python.
``repro lint --stats`` prints ``parsed=0`` on that path, which CI
asserts.

Entries are keyed by path and validated by hash, so a file edit
replaces its entry in place and the store never grows beyond one entry
per file.  Corrupt or version-mismatched stores are discarded
silently: a cache can always be rebuilt, a crash cannot.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .framework import Violation

_SCHEMA_VERSION = 2
_CACHE_FILENAME = "lint-cache.json"

_ANALYSIS_DIR = Path(__file__).resolve().parent


def rules_fingerprint() -> str:
    """sha256 over the analysis package's own sources.

    Any edit to the framework, a rule, the project model, or the
    runner changes the fingerprint and invalidates every cache entry.
    """
    digest = hashlib.sha256()
    for path in sorted(_ANALYSIS_DIR.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def file_sha256(path: Path) -> str:
    """Content hash of one file."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _violation_to_dict(v: Violation) -> Dict[str, Any]:
    return {
        "rule_id": v.rule_id,
        "path": v.path,
        "line": v.line,
        "column": v.column,
        "message": v.message,
    }


def _violation_from_dict(d: Dict[str, Any]) -> Violation:
    return Violation(
        rule_id=d["rule_id"],
        path=d["path"],
        line=d["line"],
        column=d["column"],
        message=d["message"],
    )


class LintCache:
    """One on-disk store: ``{path: {sha, violations, facts}}``."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.path = cache_dir / _CACHE_FILENAME
        self.fingerprint = rules_fingerprint()
        self._files: Dict[str, Dict[str, Any]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            doc = json.loads(self.path.read_text())
        except (ValueError, OSError):
            return
        if (
            doc.get("version") != _SCHEMA_VERSION
            or doc.get("rules") != self.fingerprint
        ):
            return
        files = doc.get("files")
        if isinstance(files, dict):
            self._files = files

    def lookup(self, path: Path, sha: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``path`` if its content still matches."""
        entry = self._files.get(str(path))
        if entry is None or entry.get("sha") != sha:
            return None
        return entry

    def cached_violations(self, entry: Dict[str, Any]) -> List[Violation]:
        return [_violation_from_dict(d) for d in entry.get("violations", [])]

    def store(
        self,
        path: Path,
        sha: str,
        violations: List[Violation],
        facts: Optional[Dict[str, Any]],
    ) -> None:
        self._files[str(path)] = {
            "sha": sha,
            "violations": [_violation_to_dict(v) for v in violations],
            "facts": facts,
        }
        self._dirty = True

    def save(self) -> None:
        """Persist if anything changed since load."""
        if not self._dirty:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "version": _SCHEMA_VERSION,
            "rules": self.fingerprint,
            "files": self._files,
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        tmp.replace(self.path)
        self._dirty = False
