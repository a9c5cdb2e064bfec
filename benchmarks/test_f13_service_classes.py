"""F13 — extension: per-service-class performance impact.

Enterprise clusters differentiate VMs into service classes; hosts deliver
CPU strict-priority (GOLD → SILVER → BRONZE).  The question for power
management: when parked capacity causes transient shortfalls, *who* pays?
The answer should be "only the classes designed to absorb it" — GOLD
rides through even the S5 policy's slow wakes.
"""

from benchmarks.conftest import eval_fleet_spec, run_policy_comparison
from repro.analysis import render_table
from repro.core import always_on, s3_policy, s5_policy


def compute_f13():
    spec = eval_fleet_spec(
        archetype_weights={"bursty": 0.6, "diurnal": 0.4},
        shared_fraction=0.55,
    )
    runs = run_policy_comparison(
        configs=[always_on(), s5_policy(), s3_policy()], fleet_spec=spec
    )
    table = {}
    for name, run in runs.items():
        extra = run.report.extra
        table[name] = {
            "gold": extra["violation_gold"],
            "silver": extra["violation_silver"],
            "bronze": extra["violation_bronze"],
            "energy_kwh": run.report.energy_kwh,
        }
    return table


def test_f13_service_classes(once):
    table = once(compute_f13)
    rows = [
        [name, row["energy_kwh"], row["gold"], row["silver"], row["bronze"]]
        for name, row in table.items()
    ]
    print()
    print(
        render_table(
            ["policy", "energy_kwh", "gold_viol", "silver_viol", "bronze_viol"],
            rows,
            title="F13: undelivered-demand fraction per service class",
        )
    )

    base = table["AlwaysOn"]
    s3 = table["S3-PM"]
    s5 = table["S5-PM"]
    # Baseline: nobody starves.
    assert base["gold"] == base["silver"] == base["bronze"] == 0.0
    # Under power management, shortfall lands on the lower classes:
    # strict priority protects GOLD essentially completely.
    for policy in (s3, s5):
        assert policy["gold"] <= 0.001
        assert policy["gold"] <= policy["bronze"] + 1e-12
    # BRONZE carries the bulk of whatever shortfall exists.
    assert s3["bronze"] >= s3["silver"] >= s3["gold"] - 1e-12
    # And the S3 policy keeps even BRONZE's exposure small.
    assert s3["bronze"] < 0.05
