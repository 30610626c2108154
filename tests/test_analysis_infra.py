"""Tests for the lint production infrastructure.

Covers the report renderers (text/JSON/SARIF 2.1.0), baseline
accept/suppress/update flow, the content-hash incremental cache (the
ISSUE's ≥5x warm-speedup bar is asserted here, not just in CI), the
multiprocess fan-out, and the CLI wiring for all of it.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import lint_tree
from repro.analysis.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.cache import LintCache, file_sha256, rules_fingerprint
from repro.analysis.framework import Violation
from repro.analysis.output import render, render_json, render_sarif
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

V1 = Violation("G2G001", "src/repro/sim/x.py", 3, 5, "global RNG call")
V2 = Violation("G2G012", "src/repro/sim/y.py", 9, 1, "raw event-time math")


def make_tree(tmp_path, n=6, flagged=True):
    """A small lintable repro/ tree; one file optionally violating."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    for i in range(n):
        (pkg / f"mod{i}.py").write_text(f"def f{i}():\n    return {i}\n")
    if flagged:
        (pkg / "bad.py").write_text(
            "import random\n\ndef f():\n    return random.random()\n"
        )
    return tmp_path


class TestOutput:
    def test_json_document_shape(self):
        doc = json.loads(render_json([V1, V2]))
        assert doc["total"] == 2
        assert doc["counts"] == {"G2G001": 1, "G2G012": 1}
        assert doc["violations"][0]["path"] == "src/repro/sim/x.py"
        assert doc["violations"][0]["line"] == 3

    def test_sarif_is_valid_2_1_0(self):
        log = json.loads(render_sarif([V1, V2]))
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rules == {"G2G001", "G2G012"}
        assert len(run["results"]) == 2
        result = run["results"][0]
        assert result["ruleId"] == "G2G001"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/sim/x.py"
        assert loc["region"] == {"startLine": 3, "startColumn": 5}
        # ruleIndex must point at the matching driver rule entry.
        idx = result["ruleIndex"]
        assert run["tool"]["driver"]["rules"][idx]["id"] == "G2G001"

    def test_sarif_empty_run(self):
        log = json.loads(render_sarif([]))
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["tool"]["driver"]["rules"] == []

    def test_render_dispatch_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render([], "yaml")


class TestBaseline:
    def test_fingerprint_ignores_line_numbers(self):
        moved = Violation(V1.rule_id, V1.path, V1.line + 40, 1, V1.message)
        assert fingerprint(V1) == fingerprint(moved)
        other = Violation(V1.rule_id, V1.path, V1.line, V1.column, "changed")
        assert fingerprint(V1) != fingerprint(other)

    def test_roundtrip_and_counted_suppression(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [V1, V1, V2])
        baseline = load_baseline(path)
        # Two admitted occurrences of V1: a third still surfaces.
        fresh, suppressed = apply_baseline([V1, V1, V1, V2], baseline)
        assert suppressed == 3
        assert fresh == [V1]

    def test_missing_baseline_admits_nothing(self, tmp_path):
        fresh, suppressed = apply_baseline(
            [V1], load_baseline(tmp_path / "absent.json")
        )
        assert (fresh, suppressed) == ([V1], 0)

    def test_checked_in_baseline_is_empty(self):
        # The shipped tree lints clean, so the committed baseline must
        # admit nothing — new findings fail CI rather than hide.
        assert load_baseline(REPO_ROOT / ".g2g-baseline.json") == {}


class TestCache:
    def test_warm_run_parses_nothing_and_matches(self, tmp_path):
        tree = make_tree(tmp_path / "t")
        cache_dir = tmp_path / "cache"
        cold = lint_tree([tree], project=True, cache_dir=cache_dir)
        warm = lint_tree([tree], project=True, cache_dir=cache_dir)
        assert cold.stats["parsed"] == cold.stats["files"]
        assert warm.stats["parsed"] == 0
        assert warm.stats["cached"] == warm.stats["files"]
        assert warm.violations == cold.violations

    def test_edited_file_invalidated_in_place(self, tmp_path):
        tree = make_tree(tmp_path / "t")
        cache_dir = tmp_path / "cache"
        lint_tree([tree], cache_dir=cache_dir)
        target = tree / "repro" / "sim" / "mod0.py"
        target.write_text("def f0():\n    return 100\n")
        run = lint_tree([tree], cache_dir=cache_dir)
        assert run.stats["parsed"] == 1
        assert run.stats["cached"] == run.stats["files"] - 1

    def test_rules_fingerprint_invalidates_store(self, tmp_path):
        tree = make_tree(tmp_path / "t")
        cache_dir = tmp_path / "cache"
        lint_tree([tree], cache_dir=cache_dir)
        store = cache_dir / "lint-cache.json"
        doc = json.loads(store.read_text())
        doc["rules"] = "0" * 64
        store.write_text(json.dumps(doc))
        run = lint_tree([tree], cache_dir=cache_dir)
        assert run.stats["parsed"] == run.stats["files"]

    def test_corrupt_store_discarded(self, tmp_path):
        tree = make_tree(tmp_path / "t")
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "lint-cache.json").write_text("{not json")
        run = lint_tree([tree], cache_dir=cache_dir)
        assert run.stats["parsed"] == run.stats["files"]

    def test_syntax_error_is_cached_too(self, tmp_path):
        tree = tmp_path / "t"
        (tree / "repro").mkdir(parents=True)
        (tree / "repro" / "broken.py").write_text("def f(:\n")
        cache_dir = tmp_path / "cache"
        cold = lint_tree([tree], cache_dir=cache_dir)
        warm = lint_tree([tree], cache_dir=cache_dir)
        assert [v.rule_id for v in cold.violations] == ["E999"]
        assert warm.violations == cold.violations
        assert warm.stats["parsed"] == 0

    def test_fingerprint_covers_analysis_sources(self):
        fp = rules_fingerprint()
        assert len(fp) == 64
        assert fp == rules_fingerprint()

    def test_file_sha256_tracks_content(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        first = file_sha256(f)
        f.write_text("x = 2\n")
        assert file_sha256(f) != first

    def test_warm_full_tree_is_5x_faster_than_cold(self, tmp_path):
        # The ISSUE acceptance bar: a cache-warm re-lint of the
        # unchanged shipped tree is at least 5x faster than the cold
        # run (measured here over src/, project rules included).
        cache_dir = tmp_path / "cache"
        t0 = time.perf_counter()
        cold = lint_tree([SRC], project=True, cache_dir=cache_dir)
        t1 = time.perf_counter()
        warm = lint_tree([SRC], project=True, cache_dir=cache_dir)
        t2 = time.perf_counter()
        assert warm.stats["parsed"] == 0
        assert warm.violations == cold.violations
        cold_s, warm_s = t1 - t0, t2 - t1
        assert cold_s >= 5 * warm_s, (
            f"warm lint not >=5x faster: cold={cold_s:.3f}s"
            f" warm={warm_s:.3f}s"
        )


class TestParallel:
    def test_jobs_equivalent_to_sequential(self, tmp_path):
        tree = make_tree(tmp_path / "t", n=8)
        seq = lint_tree([tree], project=True)
        par = lint_tree([tree], project=True, jobs=2)
        assert par.violations == seq.violations
        assert par.stats["files"] == seq.stats["files"]

    def test_jobs_fill_the_cache(self, tmp_path):
        tree = make_tree(tmp_path / "t", n=8)
        cache_dir = tmp_path / "cache"
        lint_tree([tree], jobs=2, cache_dir=cache_dir)
        warm = lint_tree([tree], cache_dir=cache_dir)
        assert warm.stats["parsed"] == 0


class TestCli:
    def test_project_flag_shipped_tree(self, capsys):
        # G2G015 needs the entry-point trees beside the package.
        trees = [str(REPO_ROOT / d) for d in ("src", "examples", "benchmarks")]
        assert main(["lint", *trees, "--project"]) == 0
        assert "no G2G violations" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t")
        assert main(["lint", str(tree), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"G2G001": 1}

    def test_sarif_format_to_file(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t")
        out = tmp_path / "lint.sarif"
        assert (
            main([
                "lint", str(tree), "--format", "sarif",
                "--output", str(out),
            ])
            == 1
        )
        assert f"wrote {out}" in capsys.readouterr().out
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "G2G001"

    def test_baseline_flow(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t")
        baseline = tmp_path / "baseline.json"
        # Record the finding, then re-lint against the baseline: clean.
        assert (
            main([
                "lint", str(tree), "--baseline", str(baseline),
                "--update-baseline",
            ])
            == 0
        )
        assert "recorded 1 findings" in capsys.readouterr().out
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "no G2G violations" in out
        assert "1 baselined findings suppressed" in out
        # A new finding still fails.
        (tree / "repro" / "sim" / "new_bad.py").write_text(
            "import random\n\ndef g():\n    return random.choice([1])\n"
        )
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == 1

    def test_update_baseline_requires_baseline(self, tmp_path):
        tree = make_tree(tmp_path / "t", flagged=False)
        with pytest.raises(SystemExit, match="requires --baseline"):
            main(["lint", str(tree), "--update-baseline"])

    def test_stats_line(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t", flagged=False)
        cache_dir = tmp_path / "cache"
        main(["lint", str(tree), "--cache-dir", str(cache_dir), "--stats"])
        assert "lint stats:" in capsys.readouterr().out
        main(["lint", str(tree), "--cache-dir", str(cache_dir), "--stats"])
        assert "parsed=0" in capsys.readouterr().out

    def test_jobs_flag(self, tmp_path, capsys):
        tree = make_tree(tmp_path / "t")
        assert main(["lint", str(tree), "--jobs", "2"]) == 1
        assert "1 x G2G001" in capsys.readouterr().out

    def test_select_project_rule(self, capsys):
        bad = (
            REPO_ROOT / "tests" / "fixtures" / "project" / "g2g012_bad"
        )
        assert (
            main([
                "lint", str(bad), "--project", "--select", "G2G012",
            ])
            == 1
        )
        assert "2 x G2G012" in capsys.readouterr().out

    def test_list_rules_includes_project_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "G2G008" in out and "[--project]" in out
