"""Smoke tests of the benchmark: each workload at its tiny size.

Run from the root of the repository::

    python3 -m pytest perfbench/test_smoke.py

Every workload must print every end-to-end metric of ``BENCHMARK.json``
with its unit and sample count, and its traced run every per-layer
metric plus spans for each layer it exercises.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from typing import List

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Layers whose spans each workload's traced run must contain.
SPANNED = {
    "paper_runs": {
        "traces", "social", "sim", "sim.events", "sim.node",
        "protocols", "core", "crypto", "telemetry",
    },
    "figure_grid": {
        "traces", "social", "sim", "sim.events", "sim.node", "protocols",
        "core", "crypto", "telemetry", "experiments.parallel",
        "experiments.cache", "sim.serialize",
    },
    "stream_scale": {
        "traces", "sim", "sim.events", "sim.node",
        "protocols", "core", "crypto", "telemetry",
    },
}


def bench(workload: str, trace: int, out: str) -> List[str]:
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke", "--out", out,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    return proc.stdout.strip().splitlines()


def check_result(lines: List[str], metrics: List[dict]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }
    for m in metrics:
        # The human-readable line carries value, unit and sample count.
        assert any(
            line.split()[:1] == [m["name"]] and f" {m['unit']} " in line and " n=" in line
            for line in lines[:-1]
        ), m["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str, tmp_path) -> None:
    lines = bench(workload, 0, str(tmp_path))
    result = check_result(lines, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every time and rate is scaled to the reference host speed and
    # printed with its raw figure; peak_rss_mb is not scaled.
    for name in result["metrics"]:
        line = next(line for line in lines if line.split()[:1] == [name])
        if name != "peak_rss_mb":
            assert float(line.split("raw")[1].split()[0]) > 0, name
    assert "raw" not in next(line for line in lines if line.startswith("peak_rss_mb"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload: str, tmp_path) -> None:
    result = check_result(bench(workload, 1, str(tmp_path)), BENCHMARK["per_layer"])
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0
    spanned = set()
    for path in tmp_path.glob("spans-*.npz"):
        with np.load(path) as spans:
            index = np.arange(len(spans["start"]))
            assert (spans["end"] >= spans["start"]).all()
            assert (spans["parent"] < index).all()
            assert (spans["run"] >= 0).all()
            names = spans["names"]
            spanned |= {str(names[i]).split(":")[0] for i in np.unique(spans["name"])}
    assert SPANNED[workload] <= spanned


def test_every_layer_is_spanned_by_some_workload() -> None:
    assert set().union(*SPANNED.values()) == set(tracer.LAYERS)


def test_self_time_excludes_child_spans() -> None:
    spans = tracer.Tracer()
    with spans.span("a:outer"):
        time.sleep(0.02)
        with spans.span("b:inner"):
            time.sleep(0.05)
    summary = spans.summary()
    outer, inner = summary["a:outer"], summary["b:inner"]
    assert inner["self_s"] == pytest.approx(inner["total_s"])
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert 0.015 < outer["self_s"] < inner["self_s"]


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "paper_runs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
