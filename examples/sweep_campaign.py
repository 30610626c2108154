#!/usr/bin/env python3
"""Sweep campaign: resumable runs over the run cache, and terminal charts.

Shows the workflow a measurement study would use on top of this
library:

1. sweep dropper counts for two protocols through ``repro.api.sweep``
   with an on-disk run cache — rerunning the script serves finished
   runs from the cache instead of resimulating;
2. chart the returned per-count points (Fig. 3-style curves) in the
   terminal.

Run:  python examples/sweep_campaign.py          (first run simulates)
      python examples/sweep_campaign.py          (second run is instant)
"""

from pathlib import Path

from repro import api
from repro.experiments.parallel import RunReport
from repro.experiments.runner import FigureData, Series
from repro.metrics import chart_figure

#: Keep the demo snappy: two protocols, four counts, one seed.
COUNTS = (0, 10, 20, 30)
SEEDS = (1,)
PROTOCOLS = ("epidemic", "g2g_epidemic")

#: Run cache next to this script so re-runs resume (delete to reset).
ARCHIVE = Path(__file__).parent / ".sweep-archive"


def main() -> None:
    figure = FigureData(
        figure_id="campaign",
        title="Droppers vs delivery (resumable sweep)",
        x_label="Droppers Number",
        y_label="Delivery %",
    )
    report = RunReport()
    for protocol in PROTOCOLS:
        # Two workers overlap the fresh runs; cached ones just load.
        points = api.sweep(
            "infocom05", protocol, COUNTS, seeds=SEEDS,
            cache_dir=str(ARCHIVE), workers=2, report=report,
        )
        series = Series(label=protocol)
        for count, point in points:
            series.add(count, point.success_percent)
        figure.series.append(series)
    print(f"Campaign: {report.summary()} (cache: {ARCHIVE.name}/)")
    print()
    print(chart_figure(figure))


if __name__ == "__main__":
    main()
