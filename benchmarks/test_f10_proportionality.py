"""F10 — cluster energy-proportionality curve.

Paper: normalized cluster power vs. offered load, per policy, against the
ideal proportional line.  Shape: AlwaysOn is a flat expensive line; S3-PM
hugs the diagonal ("close to energy-proportional power efficiency").
"""

from benchmarks.conftest import EVAL_HOSTS, eval_fleet_spec, run_policy_comparison
from repro.analysis import proportionality_curve, proportionality_gap, render_table
from repro.prototype import PROTOTYPE_BLADE


def compute_f10():
    spec = eval_fleet_spec(archetype_weights={"diurnal": 0.85, "flat": 0.15})
    runs = run_policy_comparison(fleet_spec=spec)
    total_cores = EVAL_HOSTS * 16.0
    peak_w = EVAL_HOSTS * PROTOTYPE_BLADE.peak_w
    curves = {
        name: proportionality_curve(run.series, total_cores, peak_w)
        for name, run in runs.items()
    }
    gaps = {
        name: proportionality_gap(run.series, total_cores, peak_w)
        for name, run in runs.items()
    }
    return curves, gaps


def test_f10_proportionality(once):
    curves, gaps = once(compute_f10)
    print()
    for name, curve in curves.items():
        print(
            render_table(
                ["load_frac", "norm_power"],
                [[l, p] for l, p in curve],
                title="F10 [{}] (ideal: norm_power == load_frac)".format(name),
            )
        )
    print()
    print(
        render_table(
            ["policy", "proportionality_gap"],
            [[name, gap] for name, gap in sorted(gaps.items())],
            title="F10 summary: mean |norm_power - load| (0 = ideal)",
        )
    )

    # Shape: power management moves the cluster dramatically toward the
    # proportional line.
    assert gaps["S3-PM"] < 0.5 * gaps["AlwaysOn"]
    assert gaps["Hybrid"] < 0.5 * gaps["AlwaysOn"]
    # The managed curve lies below the always-on curve at low load.
    low_always = curves["AlwaysOn"][0][1]
    low_s3 = curves["S3-PM"][0][1]
    assert low_s3 < low_always
    # Ideally close: S3's average distance from the diagonal is small.
    assert gaps["S3-PM"] < 0.17
