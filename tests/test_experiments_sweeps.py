"""Tests for resumable sweeps: a series over the run cache."""

import csv

from repro.cli import main
from repro.experiments import (
    PROTOCOLS,
    ExecutionOptions,
    ReplicationPlan,
    RunCache,
    RunReport,
    run_series,
)

#: 30x fewer messages than the paper rate keeps each run light.
LIGHT = {"mean_interarrival": 120.0}


def sweep(cache, report=None):
    return run_series(
        "infocom05",
        "epidemic",
        PROTOCOLS["epidemic"][1],
        (0, 5),
        "dropper",
        plan=ReplicationPlan(seeds=(1, 2)),
        config_overrides=LIGHT,
        options=ExecutionOptions(cache=cache, report=report),
    )


class TestResume:
    def test_rerun_is_served_from_the_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        cold = sweep(cache)
        assert cache.stats.writes == 4
        report = RunReport()
        warm = sweep(cache, report)
        assert (report.executed, report.cached) == (0, 4)
        assert [p.success_rate for _, p in warm] == [
            p.success_rate for _, p in cold
        ]

    def test_deleted_entry_is_rerun(self, tmp_path):
        cache = RunCache(tmp_path)
        sweep(cache)
        sorted(tmp_path.glob("*.json"))[0].unlink()
        report = RunReport()
        sweep(cache, report)
        assert (report.executed, report.cached) == (1, 3)


class TestCsvExport:
    def test_summary_csv(self, capsys, tmp_path):
        out = tmp_path / "summary.csv"
        code = main(
            [
                "sweep",
                "--trace", "infocom05",
                "--protocol", "epidemic",
                "--counts", "0,5",
                "--seeds", "1",
                "--archive", str(tmp_path / "archive"),
                "--csv", str(out),
            ]
        )
        assert code == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["count"], r["adversary"], r["seed"]) for r in rows] == [
            ("0", "", "1"),
            ("5", "dropper", "1"),
        ]
        assert all(r["protocol"] == "epidemic" for r in rows)
        assert "success_rate" in rows[0]
        assert "wrote 2 summary rows" in capsys.readouterr().out
