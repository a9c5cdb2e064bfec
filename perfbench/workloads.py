"""The benchmark's workloads: one user operation on the simulator each.

Every workload returns an :class:`Outcome` holding its timings, the
number of operations attempted and failed, and a digest of everything it
produced, so repeats can be compared bit for bit.  An operation is one
scenario run, one resume, or one spec served by ``run_scenarios``.

Reference outputs (``references.json``) were recorded from the simulator
at the workloads' default seeds and full sizes; other seeds and the tiny
sizes used by the self-test are checked for internal consistency and for
agreement between repeats only.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Tracer, clock

REFERENCES_PATH = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Size:
    hosts: int
    vms: int
    hours: float

    @property
    def horizon_s(self) -> float:
        return self.hours * 3600.0


@dataclass
class Outcome:
    """What one repetition of a workload measured and produced."""

    host_hours: float
    #: Walls of every ``build_scenario`` call (campaign: one per spec,
    #: inside the pool).
    setup_s: List[float] = field(default_factory=list)
    #: Wall of the headline operation (per simulated host-hour metric).
    op_s: Optional[float] = None
    resume_s: Optional[float] = None
    sweep_s: Optional[float] = None
    warm_s: List[float] = field(default_factory=list)
    #: Sum of every timed operation: the base of the tracing overhead.
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: sha256 over every output, in a fixed order.
    digest: str = ""
    #: Layer counts read from the outputs (report counters, sizes).
    counts: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, ops: int = 1) -> None:
        # Two checks can fail the same operation; never count past it.
        self.failed = min(self.attempted, self.failed + ops)
        self.errors.append(message)


def report_digest(report: Any) -> str:
    blob = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digest_of(parts: List[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def reference(workload: str, seed: int, size: Size, full: Size) -> Optional[Dict[str, Any]]:
    """The recorded outputs for this point, when there are any."""
    if size != full:
        return None
    table = json.loads(REFERENCES_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


#: Per-layer metric name -> ``report.extra`` counter it sums.
PLANE_COUNTERS = {
    "plane.wakes_requested": "wakes_requested",
    "plane.wake_failures": "wake_failures",
    "plane.wake_rejections": "wake_rejections",
    "plane.parks_completed": "parks_completed",
    "plane.evacuations_aborted": "evacuations_aborted",
    "plane.safe_mode_enters": "safe_mode_enters",
    "plane.detector_reports": "detector_reports",
    "plane.detector_reports_dropped": "detector_reports_dropped",
    "migration.started": "migrations_started",
    "migration.completed": "migrations_completed",
    "migration.failed": "migrations_failed",
    "migration.aborted": "migrations_aborted",
    "migration.retries": "migration_retries",
}


def plane_counts(extras: List[Dict[str, float]]) -> Dict[str, float]:
    """Decision-layer and migration counters summed over reports."""
    return {name: sum(extra[key] for extra in extras) for name, key in PLANE_COUNTERS.items()}


def setup_samples(tracer: Tracer) -> List[float]:
    return list(tracer.durations["runner.build_scenario"])


# ----------------------------------------------------------------------
# fleet-2k
# ----------------------------------------------------------------------

FLEET_FULL = Size(hosts=2000, vms=8000, hours=2.0)


def run_fleet(seed: int, size: Size, work: Path, tracer: Tracer, traced: bool) -> Outcome:
    from repro.core import run_scenario, s3_policy
    from repro.workload import FleetSpec

    out = Outcome(host_hours=size.hosts * size.hours, attempted=1)
    horizon = size.horizon_s
    fleet = FleetSpec(n_vms=size.vms, horizon_s=horizon, shared_fraction=0.3)
    t0 = clock()
    try:
        result = run_scenario(
            s3_policy(), n_hosts=size.hosts, horizon_s=horizon, seed=seed, fleet_spec=fleet
        )
    except Exception as exc:  # one failed operation, reported, not raised
        out.fail("run_scenario raised {!r}".format(exc))
        return out
    out.op_s = out.timed_s = clock() - t0
    out.setup_s = setup_samples(tracer)
    report = result.report
    ref = reference("fleet-2k", seed, size, FLEET_FULL)
    if ref is not None and (
        report.energy_kwh != ref["energy_kwh"]
        or report.violation_fraction != ref["violation_fraction"]
    ):
        out.fail(
            "energy/violation {!r}/{!r} differ from reference {!r}/{!r}".format(
                report.energy_kwh, report.violation_fraction,
                ref["energy_kwh"], ref["violation_fraction"],
            )
        )
    out.digest = digest_of([report_digest(report)])
    out.counts = plane_counts([report.extra])
    return out


# ----------------------------------------------------------------------
# diurnal-chaos
# ----------------------------------------------------------------------

CHAOS_FULL = Size(hosts=100, vms=400, hours=48.0)


def chaos_kwargs(seed: int, size: Size) -> Dict[str, Any]:
    """The chaos suite of the plane head-to-head, over two diurnal cycles."""
    from repro.datacenter import FaultModel, MigrationFaultModel, RepairModel, burst_window
    from repro.telemetry import StalenessModel
    from repro.workload import FleetSpec

    horizon = size.horizon_s
    return dict(
        n_hosts=size.hosts,
        horizon_s=horizon,
        seed=seed,
        fleet_spec=FleetSpec(n_vms=size.vms, horizon_s=horizon, shared_fraction=0.3),
        churn_rate_per_h=2.0,
        fault_model=FaultModel(
            wake_failure_rate=0.1,
            permanent_fraction=0.1,
            repair=RepairModel(mttr_s=3600.0),
            chaos=burst_window(0.25 * horizon, 0.5 * horizon, 0.5),
            migration=MigrationFaultModel(failure_rate=0.1),
        ),
        telemetry_model=StalenessModel(delay_s=60.0, dropout_rate=0.1),
    )


def run_chaos(seed: int, size: Size, work: Path, tracer: Tracer, traced: bool) -> Outcome:
    from repro.core import resume_scenario, run_scenario, s3_policy
    from repro.telemetry import validate

    out = Outcome(host_hours=size.hosts * size.hours, attempted=2)
    ckpt_dir = work / "ckpt"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    t0 = clock()
    try:
        result = run_scenario(
            s3_policy(),
            trace=True,
            checkpoint_every_s=0.75 * size.horizon_s,
            checkpoint_dir=ckpt_dir,
            **chaos_kwargs(seed, size),
        )
        # Looked up on the module so the traced run's wrapper applies.
        check = validate.validate_trace(result.trace, report=result.report)
        trace_hash = result.trace.trace_hash()
    except Exception as exc:
        out.fail("run/validate raised {!r}".format(exc), ops=2)
        return out
    out.op_s = clock() - t0
    out.setup_s = setup_samples(tracer)
    run_digest = report_digest(result.report)
    if not check.ok:
        out.fail("trace does not certify: {} violation(s)".format(len(check.violations)))
    ref = reference("diurnal-chaos", seed, size, CHAOS_FULL)
    if ref is not None and (run_digest, trace_hash) != (ref["report"], ref["trace"]):
        out.fail("report/trace sha256 {}/{} differ from reference".format(run_digest, trace_hash))
    saved = result.checkpoints.saved if result.checkpoints is not None else []
    if len(saved) != 1:
        out.fail("expected one checkpoint, got {}".format(len(saved)))
        return out
    out.counts = plane_counts([result.report.extra])
    out.counts["trace.events"] = float(len(result.trace))
    if traced:
        out.counts["trace.mb"] = len(result.trace.to_jsonl().encode("utf-8")) / 2**20
    ckpt = saved[0][0]
    out.counts["checkpoint.mb"] = ckpt.stat().st_size / 2**20
    # A resume starts from the file alone: drop the finished run first so
    # peak memory is the larger phase, not both.
    del result, check
    t1 = clock()
    try:
        resumed = resume_scenario(ckpt)
    except Exception as exc:
        out.fail("resume_scenario raised {!r}".format(exc))
        return out
    out.resume_s = clock() - t1
    out.timed_s = out.op_s + out.resume_s
    resumed_hash = resumed.trace.trace_hash() if resumed.trace is not None else ""
    if (report_digest(resumed.report), resumed_hash) != (run_digest, trace_hash):
        out.fail("resumed run does not reproduce the report and trace bytes")
    out.digest = digest_of([run_digest, trace_hash])
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

CAMPAIGN_FULL = Size(hosts=16, vms=64, hours=48.0)
CAMPAIGN_SEEDS = 2
#: Warm passes per repetition: one pass takes a fraction of a second.
WARM_PASSES = 5


def campaign_specs(seed: int, size: Size) -> List[Any]:
    """Four policies, every managed one also on the healthy and degraded neat plane."""
    from repro.core import ScenarioSpec, always_on, hybrid_policy, s3_policy, s5_policy
    from repro.workload import FleetSpec

    specs = []
    for s in range(seed, seed + CAMPAIGN_SEEDS):
        kwargs = dict(
            n_hosts=size.hosts,
            horizon_s=size.horizon_s,
            seed=s,
            fleet_spec=FleetSpec(n_vms=size.vms, horizon_s=size.horizon_s, shared_fraction=0.3),
        )
        specs.append(ScenarioSpec(always_on(), kwargs=dict(kwargs)))
        for make in (s5_policy, s3_policy, hybrid_policy):
            base = make()
            specs.append(ScenarioSpec(base, kwargs=dict(kwargs)))
            specs.append(
                ScenarioSpec(
                    base.with_overrides(plane="neat"),
                    kwargs=dict(kwargs),
                    label=base.name + "/neat",
                )
            )
            specs.append(
                ScenarioSpec(
                    base.with_overrides(
                        plane="neat", neat_request_delay_s=120.0, neat_request_dropout=0.2
                    ),
                    kwargs=dict(kwargs),
                    label=base.name + "/neat-degraded",
                )
            )
    return specs


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def campaign_width(traced: bool) -> int:
    # Worker spans reach the parent only through wrappers inherited by
    # fork; elsewhere the traced run keeps every spec in this process.
    if traced and multiprocessing.get_start_method() != "fork":
        return 1
    return min(2, usable_cores())


def run_campaign(seed: int, size: Size, work: Path, tracer: Tracer, traced: bool) -> Outcome:
    from repro.core import ResultCache, run_scenarios

    specs = campaign_specs(seed, size)
    n = len(specs)
    out = Outcome(
        host_hours=n * size.hosts * size.hours, attempted=n * (1 + WARM_PASSES)
    )
    width = campaign_width(traced)
    out.counts["parallel.width"] = float(width)
    cache_dir = work / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    t0 = clock()
    try:
        cold = run_scenarios(specs, workers=width, cache=ResultCache(cache_dir))
    except Exception as exc:
        out.fail("cold run_scenarios raised {!r}".format(exc), ops=out.attempted)
        return out
    out.sweep_s = out.op_s = clock() - t0
    # Each spec builds its scenario inside the pool; the spill files
    # bring those build_scenario walls back.
    tracer.merge_spills()
    out.setup_s = setup_samples(tracer)
    digests = [report_digest(a.report) for a in cold]
    ref = reference("campaign", seed, size, CAMPAIGN_FULL)
    if ref is not None:
        for spec, got, want in zip(specs, digests, ref["reports"]):
            if got != want:
                out.fail("{} seed {}: report differs from reference".format(
                    spec.name, spec.kwargs["seed"]))
    cold_bytes = [pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL) for a in cold]
    entries = [p.stat().st_size for p in ResultCache(cache_dir).entries()]
    out.counts.update(plane_counts([a.report.extra for a in cold]))
    out.counts["parallel.specs"] = float(n)
    out.counts["parallel.artifact_kb"] = sorted(len(b) for b in cold_bytes)[n // 2] / 1024
    out.counts["cache.mb"] = sum(entries) / 2**20
    del cold
    for warm_pass in range(WARM_PASSES):
        cache = ResultCache(cache_dir)
        t1 = clock()
        try:
            warm = run_scenarios(specs, workers=width, cache=cache)
        except Exception as exc:
            out.fail("warm run_scenarios raised {!r}".format(exc), ops=n)
            continue
        out.warm_s.append(clock() - t1)
        if cache.hits != n or cache.misses:
            out.fail("warm pass was not served from the cache ({} hits, {} misses)".format(
                cache.hits, cache.misses), ops=n)
            continue
        # Later passes read the same entries, whose digest frames the
        # cache verifies on every read.
        if warm_pass == 0:
            for spec, got, want in zip(specs, warm, cold_bytes):
                if pickle.dumps(got, protocol=pickle.HIGHEST_PROTOCOL) != want:
                    out.fail("{}: warm artifacts differ from cold ones".format(spec.name))
        del warm
    out.timed_s = out.op_s + sum(out.warm_s)
    out.digest = digest_of(digests)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Spans every traced run installs; each must fire (the span guard).
CORE_HOOKS = (
    "runner.build_scenario",
    "workload.build_fleet",
    "runner.placement",
    "runner.finalize",
    "sim.run",
    "sampler.tick",
    "power.set_power",
    "plane.round",
    "plane.watchdog",
    "migration.migrate",
)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    full: Size
    tiny: Size
    run: Callable[[int, Size, Path, Tracer, bool], Outcome]
    #: Operations one repetition attempts.
    ops: int
    #: Spans installed in the traced run; every one must be called.
    hooks: Tuple[str, ...]
    #: Spans installed in untraced runs, to time set-up.
    setup_hooks: Tuple[str, ...] = ("runner.build_scenario",)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet-2k", 7, FLEET_FULL, Size(60, 240, 2.0), run_fleet, 1, CORE_HOOKS,
        ),
        Workload(
            "diurnal-chaos", 2013, CHAOS_FULL, Size(12, 48, 12.0), run_chaos, 2,
            CORE_HOOKS + (
                "plane.admit", "trace.hash", "validate.trace",
                "checkpoint.save", "checkpoint.load", "checkpoint.restore",
            ),
        ),
        Workload(
            "campaign", 2013, CAMPAIGN_FULL, Size(4, 16, 12.0), run_campaign,
            CAMPAIGN_SEEDS * 10 * (1 + WARM_PASSES),
            CORE_HOOKS + ("parallel.spec", "cache.put", "cache.get"),
            # build_scenario runs in pool workers, whose spans come back
            # through the spill files of the ScenarioSpec.run wrapper.
            setup_hooks=("runner.build_scenario", "parallel.spec"),
        ),
    )
}
