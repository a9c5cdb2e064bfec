"""F5 — normalized energy across policies × workloads.

Paper: energy of each management policy normalized to the always-on
baseline, across workload classes, with the proportional oracle as the
floor.  Headline shape: S3-PM approaches the oracle; S5-PM saves less;
AlwaysOn is 1.0 by construction.
"""

from benchmarks.conftest import EVAL_HOSTS, eval_fleet_spec, run_policy_comparison
from repro.analysis import perfect_consolidation_kwh, render_table
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE

WORKLOADS = {
    "diurnal": dict(archetype_weights={"diurnal": 0.85, "flat": 0.15}),
    "bursty": dict(
        archetype_weights={"bursty": 0.7, "diurnal": 0.3}, shared_fraction=0.5
    ),
    "mixed": dict(),
    "flat": dict(archetype_weights={"flat": 0.9, "spiky": 0.1}),
}


def compute_f5():
    table = {}
    for wl_name, overrides in WORKLOADS.items():
        spec = eval_fleet_spec(**overrides)
        runs = run_policy_comparison(fleet_spec=spec)
        base_kwh = runs["AlwaysOn"].report.energy_kwh
        demand = runs["AlwaysOn"].series["demand_cores"]
        oracle = perfect_consolidation_kwh(
            demand,
            PROTOTYPE_BLADE,
            16.0,
            parked_power_w=PROTOTYPE_BLADE.stable_power(PowerState.SLEEP),
            n_hosts=EVAL_HOSTS,
        )
        table[wl_name] = {
            name: run.report.energy_kwh / base_kwh for name, run in runs.items()
        }
        table[wl_name]["Oracle"] = oracle / base_kwh
    return table


def test_f5_energy_savings(once):
    table = once(compute_f5)
    policies = ["AlwaysOn", "S5-PM", "S3-PM", "Hybrid", "Oracle"]
    rows = [
        [wl] + [table[wl][p] for p in policies] for wl in WORKLOADS
    ]
    print()
    print(
        render_table(
            ["workload"] + policies,
            rows,
            title="F5: energy normalized to AlwaysOn",
        )
    )

    for wl in WORKLOADS:
        col = table[wl]
        # AlwaysOn is the unit baseline; every PM policy saves energy.
        assert col["AlwaysOn"] == 1.0
        for policy in ("S5-PM", "S3-PM", "Hybrid"):
            assert col[policy] < 1.0
        # No policy beats the oracle floor (small tolerance: the oracle
        # uses the sampled demand, policies integrate continuously).
        for policy in ("S5-PM", "S3-PM", "Hybrid"):
            assert col[policy] > col["Oracle"] * 0.95
    # Headline: on trough-y (diurnal) load S3 nearly closes the oracle gap.
    diurnal = table["diurnal"]
    assert diurnal["S3-PM"] < 0.75
    gap_to_oracle = diurnal["S3-PM"] - diurnal["Oracle"]
    base_gap = 1.0 - diurnal["Oracle"]
    assert gap_to_oracle / base_gap < 0.35  # closes >65% of the gap
    # And S3 is at least as good as conservative S5 on every workload.
    for wl in WORKLOADS:
        assert table[wl]["S3-PM"] <= table[wl]["S5-PM"] * 1.08
