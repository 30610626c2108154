"""Benchmark: the classic DTN baselines next to the paper's protocols.

Not a paper figure — context for the Fig. 8 landscape: Spray and Wait,
PRoPHET, and BubbleRap (the paper's reference [5]) on the Infocom
stand-in, between Epidemic's cost ceiling and Delegation's floor.
"""

from repro.experiments.runner import ReplicationPlan, run_point
from repro.metrics import text_table
from repro.protocols import (
    BubbleRapForwarding,
    DelegationForwarding,
    EpidemicForwarding,
    ProphetForwarding,
    SprayAndWaitForwarding,
)

from .conftest import run_once, save_and_print

PROTOCOLS = (
    ("Epidemic", "epidemic", EpidemicForwarding),
    ("Spray&Wait (L=8)", "epidemic", lambda: SprayAndWaitForwarding(8)),
    ("PRoPHET", "delegation", ProphetForwarding),
    ("BubbleRap", "delegation", BubbleRapForwarding),
    (
        "Deleg. Last Contact",
        "delegation",
        lambda: DelegationForwarding("last_contact"),
    ),
)


def run_comparison():
    plan = ReplicationPlan.make(quick=True)
    rows = []
    by_name = {}
    for label, family, factory in PROTOCOLS:
        point = run_point("infocom05", family, factory, plan=plan)
        entry = (point.success_rate, point.mean_delay, point.cost)
        by_name[label] = entry
        rows.append(
            [label, f"{entry[0]:.1%}", f"{entry[1] / 60:.1f}m",
             f"{entry[2]:.2f}"]
        )
    return by_name, text_table(
        ["protocol", "success", "delay", "cost (replicas)"], rows
    )


def test_baselines_beyond_paper(benchmark, results_dir):
    by_name, table = run_once(benchmark, run_comparison)
    save_and_print(results_dir, "baselines-beyond-paper", table)
    epidemic = by_name["Epidemic"]
    for label in ("Spray&Wait (L=8)", "PRoPHET", "BubbleRap"):
        success, _delay, cost = by_name[label]
        # All bounded baselines trade success for far fewer replicas.
        assert cost < epidemic[2] / 2, label
        assert success < epidemic[0] + 0.02, label
        assert success > 0.25, label
    # Spray and Wait's cost respects its copy budget.
    assert by_name["Spray&Wait (L=8)"][2] <= 8.0
