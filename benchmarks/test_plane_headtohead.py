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

Recorded per point: energy, violation fractions, wake/park/rejection
counters, detector-channel traffic, safe-mode entries, and
``decision_loop_latency_s`` — mean wall-clock per consolidation round
(``sim_wall_s`` / planner rounds), the decision-loop cost proxy the
overhead experiments track.  100-host points are traced and replayed
through the invariant checker; 1000-host points run untraced for wall
budget.

Run the full series (writes ``BENCH_plane.json`` at the repo root)::

    PYTHONPATH=src:. python benchmarks/test_plane_headtohead.py

``test_plane_headtohead_smoke`` runs the 100-host points under a CI
wall budget and guards the headline claims: healthy-neat bit-exactness
and certified degraded operation.
"""

import json
import os
import resource
import sys
from pathlib import Path

from repro.core.atomicio import atomic_write_json
from repro.core import run_scenario, s3_policy
from repro.datacenter import (
    FaultModel,
    MigrationFaultModel,
    RepairModel,
    burst_window,
)
from repro.telemetry import StalenessModel
from repro.telemetry.validate import validate_trace
from repro.workload import FleetSpec

PLANE_HOSTS = (100, 1000)
PLANE_MODES = ("centralized", "neat", "neat-degraded")
PLANE_HOURS = 2.0
PLANE_SEED = 2013
PLANE_VMS_PER_HOST = 4

#: The degraded report channel: reports arrive two watchdog ticks late
#: and one in five is lost outright.
DEGRADED_DELAY_S = 120.0
DEGRADED_DROPOUT = 0.2

#: CI wall budget for one traced 100-host chaos point.
SMOKE_SIM_WALL_BUDGET_S = 10.0


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


def run_point(n_hosts: int, mode: str) -> dict:
    horizon_s = PLANE_HOURS * 3600.0
    traced = n_hosts <= 100
    result = run_scenario(
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
        trace=traced,
    )
    certified = None
    if traced:
        check = validate_trace(result.trace, report=result.report)
        certified = bool(check.ok)
    extra = result.report.extra
    rounds = horizon_s / plane_policy(mode).period_s
    return {
        "hosts": n_hosts,
        "mode": mode,
        "vms": PLANE_VMS_PER_HOST * n_hosts,
        "hours": PLANE_HOURS,
        "seed": PLANE_SEED,
        "sim_wall_s": round(result.sim_wall_s, 4),
        "decision_loop_latency_s": round(result.sim_wall_s / rounds, 6),
        "energy_kwh": result.report.energy_kwh,
        "violation_fraction": result.report.violation_fraction,
        "violation_gold": extra["violation_gold"],
        "wakes_requested": int(extra["wakes_requested"]),
        "wake_failures": int(extra["wake_failures"]),
        "wake_rejections": int(extra["wake_rejections"]),
        "reactive_wakes": int(extra["reactive_wakes"]),
        "parks_completed": int(extra["parks_completed"]),
        "safe_mode_enters": int(extra["safe_mode_enters"]),
        "detector_reports": int(extra["detector_reports"]),
        "detector_reports_dropped": int(extra["detector_reports_dropped"]),
        "certified": certified,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def test_plane_headtohead_smoke():
    """100-host chaos points: healthy-neat bit-exact, degraded certified."""
    base = run_point(100, "centralized")
    neat = run_point(100, "neat")
    degraded = run_point(100, "neat-degraded")
    assert base["sim_wall_s"] < SMOKE_SIM_WALL_BUDGET_S
    # The decomposition is free: a healthy channel reproduces the
    # centralized run bit for bit, chaos and all.
    assert neat["energy_kwh"] == base["energy_kwh"]
    assert neat["violation_fraction"] == base["violation_fraction"]
    assert neat["detector_reports"] > 0
    # Degraded operation actually degraded — and still certified.
    assert degraded["detector_reports_dropped"] > 0
    for point in (base, neat, degraded):
        assert point["certified"] is True, point["mode"]


def _run_point_subprocess(n_hosts: int, mode: str) -> dict:
    """One point per fresh interpreter, as in ``test_f_scale``."""
    import subprocess

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--point", "{}:{}".format(n_hosts, mode),
        ],
        env=env,
        stdout=subprocess.PIPE,
        check=True,
    )
    return json.loads(proc.stdout.decode())


def main() -> int:
    points = []
    for n_hosts in PLANE_HOSTS:
        for mode in PLANE_MODES:
            point = _run_point_subprocess(n_hosts, mode)
            points.append(point)
            print(
                "hosts={:>5}  {:<14}  sim={:7.3f}s  loop={:8.6f}s  "
                "E={:10.4f} kWh  viol={:.3e}  rej={:>3}  drop={:>5}  "
                "cert={}".format(
                    point["hosts"], point["mode"], point["sim_wall_s"],
                    point["decision_loop_latency_s"], point["energy_kwh"],
                    point["violation_fraction"], point["wake_rejections"],
                    point["detector_reports_dropped"], point["certified"],
                )
            )

    by_key = {(p["hosts"], p["mode"]): p for p in points}
    neat_exact = all(
        by_key[(h, "neat")]["energy_kwh"]
        == by_key[(h, "centralized")]["energy_kwh"]
        and by_key[(h, "neat")]["violation_fraction"]
        == by_key[(h, "centralized")]["violation_fraction"]
        for h in PLANE_HOSTS
    )
    degraded_degraded = all(
        by_key[(h, "neat-degraded")]["detector_reports_dropped"] > 0
        for h in PLANE_HOSTS
    )
    traced_certified = all(
        p["certified"] for p in points if p["certified"] is not None
    )
    payload = {
        "series": "plane-headtohead",
        "harness": "benchmarks/test_plane_headtohead.py",
        "chaos": {
            "wake_failure_rate": 0.1,
            "permanent_fraction": 0.1,
            "mttr_s": 3600.0,
            "burst_rate": 0.5,
            "migration_failure_rate": 0.1,
            "telemetry_delay_s": 60.0,
            "telemetry_dropout": 0.1,
            "churn_rate_per_h": 2.0,
        },
        "degraded_channel": {
            "delay_s": DEGRADED_DELAY_S,
            "dropout": DEGRADED_DROPOUT,
        },
        "neat_bit_identical": neat_exact,
        "degraded_runs_degraded": degraded_degraded,
        "traced_runs_certified": traced_certified,
        "points": points,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_plane.json"
    atomic_write_json(out, payload)
    print("wrote {}".format(out))

    ok = neat_exact and degraded_degraded and traced_certified
    print("acceptance: {}".format("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--point":
        hosts, mode = sys.argv[2].split(":")
        print(json.dumps(run_point(int(hosts), mode)))
        sys.exit(0)
    sys.exit(main())
