"""F14 — extension: host state-residency breakdown per policy.

Where do host-hours actually go?  The stacked-bar view of the whole
evaluation: fraction of host-time spent active, in each parked state, and
in transit.  The S3 policy should convert most of AlwaysOn's idle hours
into sleep hours while transit time stays negligible — transition
overhead is amortized, which is the quantitative basis for the "agile"
claim.
"""

from benchmarks.conftest import (
    EVAL_HORIZON_S,
    EVAL_HOSTS,
    eval_fleet_spec,
    run_policy_comparison,
)
from repro.analysis import render_table
from repro.power import PowerState


def compute_f14():
    spec = eval_fleet_spec(archetype_weights={"diurnal": 0.85, "flat": 0.15})
    runs = run_policy_comparison(fleet_spec=spec)
    total = EVAL_HOSTS * EVAL_HORIZON_S
    table = {}
    for name, run in runs.items():
        residency = run.residency_s
        table[name] = {
            "active": residency[PowerState.ACTIVE] / total,
            "sleep": residency[PowerState.SLEEP] / total,
            "hibernate": residency[PowerState.HIBERNATE] / total,
            "off": residency[PowerState.OFF] / total,
            "transit": run.transit_s / total,
        }
    return table


def test_f14_residency(once):
    table = once(compute_f14)
    rows = [
        [name, row["active"], row["sleep"], row["off"], row["transit"]]
        for name, row in table.items()
    ]
    print()
    print(
        render_table(
            ["policy", "active", "sleep", "off", "transit"],
            rows,
            title="F14: host-time by power state (fractions)",
        )
    )

    for name, row in table.items():
        total = sum(row.values())
        assert total == __import__("pytest").approx(1.0, abs=1e-6)
    base = table["AlwaysOn"]
    s3 = table["S3-PM"]
    s5 = table["S5-PM"]
    hybrid = table["Hybrid"]
    # AlwaysOn never leaves ACTIVE.
    assert base["active"] == 1.0
    # S3 parks a large share of host-time in SLEEP...
    assert s3["sleep"] > 0.4
    # ...while transition overhead stays negligible (<1% of host-time) —
    # the amortization that makes agility cheap.
    assert s3["transit"] < 0.01
    # S5 parks in OFF; Hybrid splits between warm sleep and deep off.
    assert s5["off"] > 0.3
    assert s5["sleep"] == 0.0
    assert hybrid["sleep"] > 0.0
    assert hybrid["off"] > 0.0
