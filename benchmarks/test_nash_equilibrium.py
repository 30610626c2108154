"""Benchmark: empirical best-response check (Theorems 1 and 2).

The paper proves G2G Epidemic and G2G Delegation are Nash equilibria.
This benchmark measures the claim: for probe nodes and every rational
deviation, the deviant's *expected* utility (averaged over traffic
seeds) must not exceed its honest utility.
"""

from repro.core import G2GDelegationForwarding, G2GEpidemicForwarding
from repro.experiments.payoff import best_response_check
from repro.experiments import evaluation_trace, standard_config

from .conftest import run_once, save_and_print


def test_nash_g2g_epidemic(benchmark, results_dir):
    trace = evaluation_trace("infocom05")
    config = standard_config("infocom05", "epidemic", 1)
    report = run_once(
        benchmark,
        lambda: best_response_check(
            trace, G2GEpidemicForwarding, config, deviations=("dropper",)
        ),
    )
    save_and_print(results_dir, "nash-g2g-epidemic", report.render())
    assert report.nash_holds
    assert all(o.detected for o in report.outcomes)


def test_nash_g2g_delegation(benchmark, results_dir):
    trace = evaluation_trace("infocom05")
    config = standard_config("infocom05", "delegation", 1)
    report = run_once(
        benchmark,
        lambda: best_response_check(
            trace,
            lambda: G2GDelegationForwarding("last_contact"),
            config,
            deviations=("dropper", "liar", "cheater"),
        ),
    )
    save_and_print(results_dir, "nash-g2g-delegation", report.render())
    assert report.nash_holds
