"""Plane head-to-head — centralized vs. decentralized management plane.

The tentpole question for the plane split: does decomposing the monolith
into local detectors + a report channel + a global manager cost
anything, and what does it buy when the management network itself
degrades?  Three modes at 100 and 1000 hosts, all under the same chaos
suite (wake-failure burst, permanent failures with MTTR repair, lossy
migrations, stale telemetry, churn):

* ``centralized``   — the monolithic decision loop (baseline);
* ``neat``          — decentralized plane, healthy channel: must be
  *bit-identical* to centralized (the decomposition is free);
* ``neat-degraded`` — decentralized plane behind a 120 s / 20 %-loss
  report channel: the global manager plans on stale partial reports,
  degraded rounds restrict parking to fresh underload evidence, and the
  run must still certify.

Every point runs traced: it must reproduce its pinned row (energy,
violation fractions, wake/park/rejection counters, safe-mode entries and
detector-channel traffic) and certify against the invariant checker.
The decision loop's cost is perfbench's ``plane.round_ms``
(``perfbench/run.py --workload diurnal-chaos --trace 1``).

``test_plane_headtohead_smoke`` keeps a coarse CI wall budget on the
100-host centralized point and guards the headline claims: healthy-neat
bit-exactness and a degraded channel that really drops reports.
"""

import time

import pytest

from repro.core import ScenarioResult, run_scenario, s3_policy
from repro.datacenter import (
    FaultModel,
    MigrationFaultModel,
    RepairModel,
    burst_window,
)
from repro.telemetry import StalenessModel
from repro.telemetry.validate import validate_trace
from repro.workload import FleetSpec

PLANE_HOURS = 2.0
PLANE_SEED = 2013
PLANE_VMS_PER_HOST = 4

#: The degraded report channel: reports arrive two watchdog ticks late
#: and one in five is lost outright.
DEGRADED_DELAY_S = 120.0
DEGRADED_DROPOUT = 0.2

#: CI wall budget for one traced 100-host chaos point, set-up included.
SMOKE_WALL_BUDGET_S = 10.0

#: ``report.extra`` counters pinned per point (besides the floats).
PLANE_COUNTERS = (
    "wakes_requested",
    "wake_failures",
    "wake_rejections",
    "reactive_wakes",
    "parks_completed",
    "safe_mode_enters",
    "detector_reports",
    "detector_reports_dropped",
)

#: Each point's pinned row, keyed by (hosts, mode).  Healthy neat equals
#: centralized at both sizes; the degraded channel parks less and drops
#: about a fifth of its reports.
PLANE_REFERENCE = {
    (100, "centralized"): {
        "energy_kwh": 32.92561718659713,
        "violation_fraction": 0.0,
        "violation_gold": 0.0,
        "wakes_requested": 0,
        "wake_failures": 0,
        "wake_rejections": 0,
        "reactive_wakes": 0,
        "parks_completed": 32,
        "safe_mode_enters": 0,
        "detector_reports": 0,
        "detector_reports_dropped": 0,
    },
    (100, "neat"): {
        "energy_kwh": 32.92561718659713,
        "violation_fraction": 0.0,
        "violation_gold": 0.0,
        "wakes_requested": 0,
        "wake_failures": 0,
        "wake_rejections": 0,
        "reactive_wakes": 0,
        "parks_completed": 32,
        "safe_mode_enters": 0,
        "detector_reports": 1958,
        "detector_reports_dropped": 0,
    },
    (100, "neat-degraded"): {
        "energy_kwh": 36.56169234240814,
        "violation_fraction": 0.0,
        "violation_gold": 0.0,
        "wakes_requested": 0,
        "wake_failures": 0,
        "wake_rejections": 0,
        "reactive_wakes": 0,
        "parks_completed": 4,
        "safe_mode_enters": 2,
        "detector_reports": 2218,
        "detector_reports_dropped": 457,
    },
    (1000, "centralized"): {
        "energy_kwh": 372.42004761506087,
        "violation_fraction": 0.0,
        "violation_gold": 0.0,
        "wakes_requested": 0,
        "wake_failures": 0,
        "wake_rejections": 0,
        "reactive_wakes": 0,
        "parks_completed": 31,
        "safe_mode_enters": 0,
        "detector_reports": 0,
        "detector_reports_dropped": 0,
    },
    (1000, "neat"): {
        "energy_kwh": 372.42004761506087,
        "violation_fraction": 0.0,
        "violation_gold": 0.0,
        "wakes_requested": 0,
        "wake_failures": 0,
        "wake_rejections": 0,
        "reactive_wakes": 0,
        "parks_completed": 31,
        "safe_mode_enters": 0,
        "detector_reports": 22653,
        "detector_reports_dropped": 0,
    },
    (1000, "neat-degraded"): {
        "energy_kwh": 376.02073532663184,
        "violation_fraction": 0.0,
        "violation_gold": 0.0,
        "wakes_requested": 0,
        "wake_failures": 0,
        "wake_rejections": 0,
        "reactive_wakes": 0,
        "parks_completed": 4,
        "safe_mode_enters": 1,
        "detector_reports": 22918,
        "detector_reports_dropped": 4573,
    },
}


def chaos_fault_model(horizon_s: float) -> FaultModel:
    """The chaos suite: everything degraded at once, mid-run burst."""
    return FaultModel(
        wake_failure_rate=0.1,
        permanent_fraction=0.1,
        repair=RepairModel(mttr_s=3600.0),
        chaos=burst_window(0.25 * horizon_s, 0.5 * horizon_s, 0.5),
        migration=MigrationFaultModel(failure_rate=0.1),
    )


def plane_policy(mode: str):
    config = s3_policy()
    if mode == "neat":
        return config.with_overrides(plane="neat")
    if mode == "neat-degraded":
        return config.with_overrides(
            plane="neat",
            neat_request_delay_s=DEGRADED_DELAY_S,
            neat_request_dropout=DEGRADED_DROPOUT,
        )
    return config


def run_point(n_hosts: int, mode: str) -> ScenarioResult:
    """Run one traced head-to-head point under the chaos suite."""
    horizon_s = PLANE_HOURS * 3600.0
    return run_scenario(
        plane_policy(mode),
        n_hosts=n_hosts,
        horizon_s=horizon_s,
        seed=PLANE_SEED,
        fleet_spec=FleetSpec(
            n_vms=PLANE_VMS_PER_HOST * n_hosts,
            horizon_s=horizon_s,
            shared_fraction=0.3,
        ),
        churn_rate_per_h=2.0,
        fault_model=chaos_fault_model(horizon_s),
        telemetry_model=StalenessModel(delay_s=60.0, dropout_rate=0.1),
        trace=True,
    )


def point_row(result: ScenarioResult) -> dict:
    """The pinned fields of one finished point."""
    extra = result.report.extra
    row = {
        "energy_kwh": result.report.energy_kwh,
        "violation_fraction": result.report.violation_fraction,
        "violation_gold": extra["violation_gold"],
    }
    row.update((name, int(extra[name])) for name in PLANE_COUNTERS)
    return row


@pytest.mark.parametrize("n_hosts, mode", list(PLANE_REFERENCE))
def test_plane_point(n_hosts, mode):
    """Each point reproduces its pinned row and certifies."""
    result = run_point(n_hosts, mode)
    assert point_row(result) == PLANE_REFERENCE[(n_hosts, mode)]
    assert validate_trace(result.trace, report=result.report).ok


def test_plane_headtohead_smoke():
    """100-host chaos points: healthy-neat bit-exact, degraded drops reports."""
    started = time.perf_counter()
    base = point_row(run_point(100, "centralized"))
    elapsed_s = time.perf_counter() - started
    neat = point_row(run_point(100, "neat"))
    degraded = point_row(run_point(100, "neat-degraded"))
    assert elapsed_s < SMOKE_WALL_BUDGET_S
    # The decomposition is free: a healthy channel reproduces the
    # centralized run bit for bit, chaos and all.
    assert neat["energy_kwh"] == base["energy_kwh"]
    assert neat["violation_fraction"] == base["violation_fraction"]
    assert neat["detector_reports"] > 0
    # Degraded operation actually degraded.
    assert degraded["detector_reports_dropped"] > 0
