#!/usr/bin/env python3
"""Diurnal enterprise datacenter: the end-to-end management scenario.

Two simulated days of a 16-host cluster whose VMs follow business-hours
demand.  Compares every policy preset and shows the S3-managed cluster
breathing with the load (active hosts and power over time).

Run with::

    python examples/diurnal_datacenter.py
"""

from repro import always_on, hybrid_policy, run_scenario, s3_policy, s5_policy
from repro.analysis import (
    perfect_consolidation_kwh,
    proportionality_gap,
    render_series,
    render_table,
)
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.telemetry import SimReport
from repro.workload import FleetSpec

N_HOSTS = 16
HORIZON_S = 48 * 3600.0


def main():
    spec = FleetSpec(
        n_vms=64,
        archetype_weights={"diurnal": 0.8, "flat": 0.1, "bursty": 0.1},
        horizon_s=HORIZON_S,
    )
    results = {}
    print("simulating 4 policies x 48 h on {} hosts ...\n".format(N_HOSTS))
    print(SimReport.header())
    for config in (always_on(), s5_policy(), s3_policy(), hybrid_policy()):
        result = run_scenario(
            config, n_hosts=N_HOSTS, horizon_s=HORIZON_S, seed=2013, fleet_spec=spec
        )
        results[config.name] = result
        print(result.report.row())

    base = results["AlwaysOn"]
    demand = base.sampler.series["demand_cores"]
    oracle_kwh = perfect_consolidation_kwh(
        demand,
        PROTOTYPE_BLADE,
        16.0,
        parked_power_w=PROTOTYPE_BLADE.stable_power(PowerState.SLEEP),
        n_hosts=N_HOSTS,
    )

    print("\nNormalized energy (AlwaysOn = 1.0, oracle floor shown last):")
    rows = [
        [name, r.report.energy_kwh / base.report.energy_kwh]
        for name, r in results.items()
    ]
    rows.append(["Oracle", oracle_kwh / base.report.energy_kwh])
    print(render_table(["policy", "normalized_energy"], rows))

    print("\nS3-PM cluster timeline:")
    s3 = results["S3-PM"].sampler.series
    for name in ("demand_cores", "active_hosts", "power_w"):
        print(render_series(s3[name].points(), name=name))

    peak_w = N_HOSTS * PROTOTYPE_BLADE.peak_w
    total_cores = N_HOSTS * 16.0
    print("\nEnergy-proportionality gap (0 = perfectly proportional):")
    print(
        render_table(
            ["policy", "gap"],
            [
                [name, proportionality_gap(r.sampler.series, total_cores, peak_w)]
                for name, r in results.items()
            ],
        )
    )


if __name__ == "__main__":
    main()
