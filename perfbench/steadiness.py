"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --workload stream_scale --seeds 11-20 --sets 2

Runs ``run.py`` (sequentially, untraced, ``run_seconds`` from
``BENCHMARK.json``) once on every seed, ``--sets`` times over, each set
after the one before, and prints, per set and end-to-end metric, the
median of the runs and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound and to the same spread of the raw
(unscaled, see ``hostspeed.py``) figures.  With two or more sets it
also prints how much worse each later set's median is than the first's,
as a share of the first (negative when better).  The last line is all
of it as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> List[int]:
    """``"11-20"`` or ``"3,5,8"`` as a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(benchmark: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    """One untraced benchmark run; its result line plus the seed."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
        ],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The raw figure behind each scaled one (see hostspeed.py).
    raw = {
        line.split()[0]: float(line.split("raw")[1].split()[0])
        for line in lines[:-1]
        if line.split()[:1] and line.split()[0] in result["metrics"] and " raw " in line
    }
    print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']} " + " ".join(
              f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
          flush=True)
    return {"seed": seed, "raw": raw, **result}


def summarize(benchmark: Dict[str, Any], runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Each end-to-end metric's median and spread over ``runs``."""
    summary = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        series = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = {"median": median, "spread": (q3 - q1) / median,
                         "bound": metric["bound"]}
        raw = [run["raw"][name] for run in runs if name in run["raw"]]
        if len(raw) == len(runs):
            r1, _, r3 = statistics.quantiles(raw, n=4)
            summary[name]["raw_spread"] = (r3 - r1) / statistics.median(raw)
        print(f"{name:<16} median={median:<12.6g} spread={(q3 - q1) / median:.4f}"
              f" raw_spread={summary[name].get('raw_spread', float('nan')):.4f}"
              f" bound={metric['bound']}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("11-20"))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    runs = [
        [run_once(benchmark, args.workload, seed) for seed in args.seeds]
        for _ in range(args.sets)
    ]
    sets = []
    for number, series in enumerate(runs, 1):
        print(f"set {number}:")
        sets.append({"runs": series, "summary": summarize(benchmark, series)})
    comparison: Dict[str, List[float]] = {}
    for later in sets[1:]:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            first = sets[0]["summary"][name]["median"]
            change = (later["summary"][name]["median"] - first) / first
            worse = change if metric["better"] == "lower" else -change
            comparison.setdefault(name, []).append(worse)
            print(f"{name:<16} later median worse by {worse:+.4f} bound={metric['bound']}")
    print(json.dumps({"workload": args.workload, "sets": sets, "median_worse": comparison}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
