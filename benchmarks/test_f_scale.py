"""F-scale — the S3-PM scenario from 16 to 2000 hosts.

One S3-PM scenario at hosts ∈ {16, 100, 500, 2000} with a 4×-host VM
fleet (2 h, seed 7).  Every point runs traced: it must reproduce its
pinned report floats bit for bit and certify against the invariant
checker.  The 2000-host point is perfbench's ``fleet-2k`` workload,
which carries the timings (``perfbench/run.py --workload fleet-2k``).

``test_f_scale_smoke`` keeps a coarse CI wall budget on the 100-host
point, timed around set-up plus simulation.
"""

import time

import pytest

from repro.core import ScenarioResult, run_scenario, s3_policy
from repro.telemetry.validate import validate_trace
from repro.workload import FleetSpec

F_SCALE_HOSTS = (16, 100, 500, 2000)
F_SCALE_HOURS = 2.0
F_SCALE_SEED = 7
F_SCALE_VMS_PER_HOST = 4

#: Each point's report floats, first recorded by the pre-optimization
#: kernel (62119b1).  Every kernel since has reproduced them bit for
#: bit: a speed-up must not change a single reported float.
F_SCALE_REFERENCE = {
    16: {
        "energy_kwh": 3.9898557878258334,
        "violation_fraction": 0.00018755828805914687,
    },
    100: {
        "energy_kwh": 34.20022943489282,
        "violation_fraction": 0.0001081819791852878,
    },
    500: {
        "energy_kwh": 193.7839698879919,
        "violation_fraction": 1.3220273923512893e-05,
    },
    2000: {
        "energy_kwh": 792.3285347977962,
        "violation_fraction": 2.6832565920205387e-06,
    },
}

#: CI wall budget for the 100-host point, set-up included (generous: it
#: runs in well under a second on a 2-vCPU container; shared runners
#: jitter).
SMOKE_WALL_BUDGET_S = 2.0


def run_point(n_hosts: int) -> ScenarioResult:
    """Run one traced F-scale point."""
    horizon_s = F_SCALE_HOURS * 3600.0
    return run_scenario(
        s3_policy(),
        n_hosts=n_hosts,
        horizon_s=horizon_s,
        seed=F_SCALE_SEED,
        fleet_spec=FleetSpec(
            n_vms=F_SCALE_VMS_PER_HOST * n_hosts,
            horizon_s=horizon_s,
            shared_fraction=0.3,
        ),
        trace=True,
    )


def point_row(result: ScenarioResult) -> dict:
    """The pinned fields of one finished point."""
    return {
        "energy_kwh": result.report.energy_kwh,
        "violation_fraction": result.report.violation_fraction,
    }


@pytest.mark.parametrize("n_hosts", F_SCALE_HOSTS)
def test_f_scale_point(n_hosts):
    """Each point reproduces its pinned floats and certifies."""
    result = run_point(n_hosts)
    assert point_row(result) == F_SCALE_REFERENCE[n_hosts]
    assert validate_trace(result.trace, report=result.report).ok


def test_f_scale_smoke():
    """100-host point under a wall budget, bit-exact vs. its pinned row."""
    started = time.perf_counter()
    result = run_point(100)
    elapsed_s = time.perf_counter() - started
    assert result.env.events_processed > 0
    assert elapsed_s < SMOKE_WALL_BUDGET_S
    assert point_row(result) == F_SCALE_REFERENCE[100]
