"""Scenario runner: wire every subsystem together and simulate.

This is the top-level API examples and benchmarks use::

    from repro.core import run_scenario, s3_policy

    result = run_scenario(s3_policy(), n_hosts=20, n_vms=80,
                          horizon_s=48 * 3600, seed=7)
    print(result.report.row())
"""

from __future__ import annotations

import copy
import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.cache import Uncacheable, canonical
from repro.core.checkpoint import (
    CheckpointCoordinator,
    ResumeRecord,
    capture_resume_records,
    load_checkpoint,
    rebind_config,
    restore_processes,
    save_checkpoint,
)
from repro.core.config import ManagerConfig
from repro.core.plane import LocalDetectors, PowerAwareManager
from repro.datacenter.cluster import Cluster
from repro.datacenter.faults import FaultModel, MigrationFaultInjector
from repro.datacenter.vm import Priority, VM
from repro.migration.engine import MigrationEngine
from repro.power.dvfs import DvfsModel
from repro.power.profiles import ServerPowerProfile
from repro.prototype.calibration import make_prototype_blade_profile
from repro.sim import Environment
from repro.telemetry.metrics import SimReport, build_report
from repro.telemetry.sampler import ClusterSampler
from repro.telemetry.stream import StreamingMetricsSink
from repro.telemetry.trace import TraceBuffer
from repro.telemetry.view import Channel, ClusterView, StalenessModel
from repro.trace_events import AdmissionEvent, HostFinal, RunEnd
from repro.workload.churn import ChurnGenerator
from repro.workload.fleet import FleetSpec, build_fleet
from repro.workload.traces import TRACE_STEP_S


@dataclass
class ScenarioResult:
    """Everything a caller might want from a finished run."""

    report: SimReport
    cluster: Cluster
    sampler: ClusterSampler
    manager: PowerAwareManager
    engine: MigrationEngine
    env: Environment
    churn: Optional[ChurnGenerator] = None
    #: Decision trace (only when the scenario ran with ``trace=True``).
    trace: Optional[TraceBuffer] = None
    #: In-simulation checkpoint coordinator (only when the scenario ran
    #: with ``checkpoint_every_s``): carries the saved paths/manifests.
    checkpoints: Optional[CheckpointCoordinator] = None


@dataclass
class LiveScenario:
    """A fully wired scenario: the checkpoint payload's object graph.

    Everything here is picklable at a quiescent point — the environment
    drops its event heap (captured separately as resume records), live
    process handles pickle as inert husks, and the streaming sink is
    detached by the sampler.  ``run_scenario`` builds one and
    ``resume_scenario`` loads one from a checkpoint; both then drive it
    to the horizon and finalize it.
    """

    env: Environment
    config: ManagerConfig
    cluster: Cluster
    engine: MigrationEngine
    manager: PowerAwareManager
    sampler: ClusterSampler
    horizon_s: float
    seed: int
    churn: Optional[ChurnGenerator] = None
    trace: Optional[TraceBuffer] = None
    #: Extra scenario identity carried into checkpoint manifests.
    meta: Dict[str, Any] = field(default_factory=dict)


class FleetStore:
    """The fleet a sweep process drew last, kept pristine for its later specs.

    :func:`~repro.core.parallel.run_scenarios` gives each process that
    runs specs one store for the call, and :func:`build_scenario` asks it
    for the fleet a spec draws: specs that share a ``(FleetSpec, seed)``
    then place copies of one build.  The key is the result cache's
    :func:`~repro.core.cache.canonical` encoding of the spec, plus the
    seed.  Only the most recent fleet is kept, as a sweep submits each
    fleet's specs together.  Its VMs are never placed, and their traces
    are read-only, so every copy starts from the state a fresh build has.
    """

    def __init__(self) -> None:
        self._key: Optional[str] = None
        self._fleet: List[VM] = []

    def fleet(self, spec: FleetSpec, seed: int) -> List[VM]:
        """The VMs ``build_fleet(spec, seed=seed)`` returns, built on a miss.

        The caller places copies, never these.  A spec without a canonical
        encoding shares no build: it gets a fresh one.
        """
        try:
            key = json.dumps([canonical(spec), canonical(seed)], sort_keys=True)
        except Uncacheable:
            return build_fleet(spec, seed=seed)
        if key != self._key:
            # Drop the old fleet first: a process never holds two.
            self._key, self._fleet = None, []
            self._fleet = build_fleet(spec, seed=seed)
            self._key = key
        return self._fleet


def _placement_failure(vm: VM, cluster: Cluster) -> str:
    """Explain *why* no host can take ``vm`` — name the failed constraint."""
    active = [h for h in cluster.hosts if h.is_active]
    if not active:
        return (
            "fleet does not fit: {} cannot be placed — no host is ACTIVE "
            "(cluster states: {})".format(
                vm.name,
                ", ".join(sorted({h.state.value for h in cluster.hosts})),
            )
        )
    group = vm.anti_affinity_group
    mem_ok = [h for h in active if vm.mem_gb <= h.mem_free_gb + 1e-9]
    if not mem_ok:
        max_free = max(h.mem_free_gb for h in active)
        return (
            "fleet does not fit: {} needs {:g} GB but the best active host "
            "has only {:g} GB free".format(vm.name, vm.mem_gb, max_free)
        )
    if group is not None:
        return (
            "fleet does not fit: {} belongs to anti-affinity group {!r}, "
            "which already occupies every active host with {:g} GB free "
            "({} candidate(s))".format(vm.name, group, vm.mem_gb, len(mem_ok))
        )
    return (
        "fleet does not fit: {} ({:g} vCPU, {:g} GB) was rejected by every "
        "active host".format(vm.name, vm.vcpus, vm.mem_gb)
    )


def spread_placement(vms: List[VM], cluster: Cluster) -> None:
    """Initial worst-fit placement: spread VMs as a balanced DRM cluster.

    Largest VMs first, each onto the host with the most remaining vCPU
    budget — the steady state a load balancer would produce.

    Implemented as a lazy-deletion max-heap keyed ``(-budget, position)``
    instead of a per-VM scan over every host: ties pop the lowest
    inventory position, which is exactly the host ``max()`` over the
    inventory-ordered candidate scan used to return, so placements are
    unchanged.  Budgets only ever decrease, so a popped entry whose
    budget disagrees with the live table is stale and safely dropped.
    """
    hosts = cluster.hosts
    budgets = [h.cores for h in hosts]
    heap = [(-budgets[i], i) for i in range(len(hosts))]
    heapq.heapify(heap)
    for vm in sorted(vms, key=lambda v: v.vcpus, reverse=True):
        # Hosts that can't take this VM stay eligible for later (smaller)
        # VMs, so stash and re-push them rather than discarding.
        skipped = []
        placed = False
        while heap:
            entry = heapq.heappop(heap)
            neg_budget, pos = entry
            if -neg_budget != budgets[pos]:
                continue  # stale: superseded by a later placement
            host = hosts[pos]
            if host.is_active and host.fits(vm):
                cluster.add_vm(vm, host)
                budgets[pos] -= vm.vcpus
                heapq.heappush(heap, (-budgets[pos], pos))
                placed = True
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(heap, entry)
        if not placed:
            raise RuntimeError(_placement_failure(vm, cluster))


def build_scenario(
    config: ManagerConfig,
    n_hosts: int = 20,
    n_vms: int = 80,
    horizon_s: float = 48 * 3600.0,
    seed: int = 0,
    host_cores: float = 16.0,
    host_mem_gb: float = 128.0,
    profile: Optional[ServerPowerProfile] = None,
    fleet: Optional[List[VM]] = None,
    fleet_spec: Optional[FleetSpec] = None,
    fleet_store: Optional[FleetStore] = None,
    epoch_s: float = 60.0,
    churn_rate_per_h: float = 0.0,
    churn_lifetime_s: float = 6 * 3600.0,
    fault_model: Optional[FaultModel] = None,
    telemetry_model: Optional[StalenessModel] = None,
    trace: bool = False,
    trace_maxlen: Optional[int] = None,
    bounded_series: bool = False,
) -> LiveScenario:
    """Wire every subsystem together and start the long-lived loops.

    This is :func:`run_scenario`'s setup phase; :func:`resume_scenario`
    gets its :class:`LiveScenario` from a checkpoint instead.

    Args:
        config: the management policy (see :mod:`repro.core.policies`).
        n_hosts / host_cores / host_mem_gb: homogeneous cluster shape.
        n_vms: fleet size when ``fleet`` is not given.
        horizon_s: simulated duration.
        seed: drives fleet generation and churn.
        profile: server power profile (default: the prototype blade).
        fleet: explicit VM list (overrides ``n_vms``/``fleet_spec``); the
            run places copies and leaves these VMs untouched.
        fleet_spec: fleet shape (default: the enterprise mix).
        fleet_store: a sweep's :class:`FleetStore`; the drawn fleet comes
            from it, and the run places copies.  Outputs are the same
            with or without it.
        epoch_s: telemetry/demand refresh interval.
        churn_rate_per_h: VM arrivals per hour (0 disables churn; a
            negative rate is refused).
        churn_lifetime_s: mean lifetime of a churned VM.
        fault_model: optional fault injection — wake failures and, via
            its ``migration`` field, mid-copy migration failures (see
            :class:`repro.datacenter.FaultModel`).
        telemetry_model: optional staleness/dropout pipeline between the
            sampler and the manager (see
            :class:`repro.telemetry.view.StalenessModel`); None keeps the
            manager on ground truth.
        trace: record a structured decision trace (see
            :mod:`repro.telemetry.trace`) into ``result.trace``.
        trace_maxlen: bounded-buffer capacity (None = library default).
        bounded_series: keep O(1) incremental series aggregates instead
            of every sample — flat RAM over arbitrary horizons (pair
            with ``stream`` to keep the raw windows).
    """
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if churn_rate_per_h < 0:
        raise ValueError("churn_rate_per_h must be >= 0")
    if fleet is None:
        spec = fleet_spec or FleetSpec(n_vms=n_vms, horizon_s=min(horizon_s, 7 * 86_400.0))
        # Every drawn trace needs one sample: refuse before building anything.
        if spec.horizon_s < TRACE_STEP_S:
            raise ValueError(
                "horizon_s {:g} s is shorter than one {:g} s trace sample".format(
                    spec.horizon_s, TRACE_STEP_S
                )
            )
    env = Environment()
    buf: Optional[TraceBuffer] = None
    if trace:
        buf = (
            TraceBuffer(maxlen=trace_maxlen, label=config.name)
            if trace_maxlen is not None
            else TraceBuffer(label=config.name)
        )
    profile = profile or make_prototype_blade_profile()
    dvfs = DvfsModel() if config.enable_dvfs else None
    cluster = Cluster.homogeneous(
        env,
        profile,
        n_hosts,
        cores=host_cores,
        mem_gb=host_mem_gb,
        dvfs=dvfs,
        faults=fault_model,
        fault_seed=seed,
        trace=buf,
    )
    if fleet is None and fleet_store is not None:
        fleet = fleet_store.fleet(spec, seed)
    if fleet is None:
        fleet = build_fleet(spec, seed=seed)
    else:
        # Run copies: the caller's VMs (a spec's kwargs, or a sweep's
        # pristine fleet) must come out of the run unplaced and unmigrated,
        # or a digest would change and a later run would start placed.
        fleet = [copy.copy(vm) for vm in fleet]
    spread_placement(fleet, cluster)
    if buf is not None:
        for vm in fleet:
            if vm.host is not None:
                buf.emit(AdmissionEvent(env.now, "initial-place", vm.name, vm.host.name))

    injector = None
    if fault_model is not None and fault_model.migration is not None:
        injector = MigrationFaultInjector(fault_model.migration, seed=seed)
    telemetry: Optional[Channel[ClusterView]] = None
    if telemetry_model is not None:
        telemetry = Channel(telemetry_model.delay_s, telemetry_model.dropout_rate)
    detectors = None
    if config.plane == "neat":
        detectors = LocalDetectors(
            cluster,
            Channel(config.neat_request_delay_s, config.neat_request_dropout),
            seed,
        )
    engine = MigrationEngine(env, trace=buf, faults=injector)
    manager = PowerAwareManager(
        env, cluster, engine, config, trace=buf, telemetry=telemetry,
        detectors=detectors,
    )
    sampler = ClusterSampler(
        env,
        cluster,
        epoch_s=epoch_s,
        telemetry=telemetry,
        headroom_ceiling=config.balance.dst_ceiling,
        bounded=bounded_series,
        seed=seed,
    )
    manager.tick_aggregates = sampler
    sampler.start()
    manager.start()

    churn = None
    if churn_rate_per_h > 0:
        churn = ChurnGenerator(
            env,
            seed=seed + 1,
            admit=manager.admit,
            retire=manager.retire,
            arrival_rate_per_h=churn_rate_per_h,
            mean_lifetime_s=churn_lifetime_s,
            spec=fleet_spec or FleetSpec(n_vms=1, horizon_s=min(horizon_s, 7 * 86_400.0)),
        )
        churn.start()

    return LiveScenario(
        env=env,
        config=config,
        cluster=cluster,
        engine=engine,
        manager=manager,
        sampler=sampler,
        horizon_s=horizon_s,
        seed=seed,
        churn=churn,
        trace=buf,
    )


def finalize_scenario(
    live: LiveScenario,
    checkpoints: Optional[CheckpointCoordinator] = None,
) -> ScenarioResult:
    """Emit end-of-run trace markers and assemble the result/report."""
    env = live.env
    cluster = live.cluster
    engine = live.engine
    manager = live.manager
    sampler = live.sampler
    churn = live.churn
    buf = live.trace
    config = live.config
    horizon_s = live.horizon_s
    if buf is not None:
        for h in cluster.hosts:
            buf.emit(HostFinal(
                env.now, h.name, h.state.value, h.energy_j(),
                h.wake_failures, h.out_of_service,
            ))
        buf.emit(RunEnd(
            env.now,
            horizon_s=horizon_s,
            energy_kwh=cluster.energy_j() / 3.6e6,
            hosts=len(cluster.hosts),
            vms=cluster.vm_count,
            migrations_unfinished=engine.unfinished,
        ))

    report = build_report(config.name, cluster, sampler, engine, horizon_s)
    # One pass over the sample history, not one per priority class.
    violation_by_class = sampler.violation_fraction_by_class()
    report.extra.update(
        {
            "reactive_wakes": float(manager.log.reactive_wakes),
            "wakes_requested": float(manager.log.wakes_requested),
            "parks_completed": float(manager.log.parks_completed),
            "evacuations_aborted": float(manager.log.evacuations_aborted),
            "balancer_moves": float(manager.log.balancer_moves),
            "mean_admission_wait_s": manager.log.mean_admission_wait_s(),
            "pending_admissions_end": float(manager.pending_admissions),
            "wake_failures": float(manager.log.wake_failures),
            "wake_retries": float(manager.log.wake_retries),
            "wake_rejections": float(manager.log.wake_rejections),
            "blacklists": float(manager.log.blacklists),
            "escalations": float(manager.log.escalations),
            "hosts_repaired": float(manager.log.hosts_repaired),
            "retires_unknown": float(manager.log.retires_unknown),
            "hosts_out_of_service": float(len(cluster.out_of_service_hosts())),
            "cap_deferrals": float(manager.log.cap_deferrals),
            "migrations_started": float(engine.started),
            "migrations_completed": float(engine.completed),
            "migrations_aborted": float(engine.aborted),
            "migrations_failed": float(engine.failed),
            "migration_retries": float(manager.log.migration_retries),
            "safe_mode_enters": float(manager.log.safe_mode_enters),
            "safe_mode_exits": float(manager.log.safe_mode_exits),
            "telemetry_dropped": float(sampler.telemetry_dropped),
            "detector_reports": float(manager.log.detector_reports),
            "detector_reports_dropped": float(
                manager.log.detector_reports_dropped
            ),
            "violation_gold": violation_by_class[Priority.GOLD],
            "violation_silver": violation_by_class[Priority.SILVER],
            "violation_bronze": violation_by_class[Priority.BRONZE],
        }
    )
    if churn is not None:
        report.extra.update(
            {
                "churn_arrived": float(churn.arrived),
                "churn_rejected": float(churn.rejected),
                "churn_departed": float(churn.departed),
            }
        )
    return ScenarioResult(
        report=report,
        cluster=cluster,
        sampler=sampler,
        manager=manager,
        engine=engine,
        env=env,
        churn=churn,
        trace=buf,
        checkpoints=checkpoints,
    )


def _make_save_fn(live: LiveScenario, sink: Optional[StreamingMetricsSink]):
    """Bind the checkpoint writer for one live scenario.

    Capture runs *before* any file I/O, so a veto costs nothing; the
    streaming sink's durable offset is taken only once quiescence is
    proven, keeping the manifest's truncation point consistent with the
    pickled window count.
    """

    def save(path: Path) -> Dict[str, Any]:
        records = capture_resume_records(live.env)
        meta: Dict[str, Any] = {
            "sim_time_s": live.env.now,
            "policy": live.config.name,
            "plane": live.config.plane,
            "seed": live.seed,
            "horizon_s": live.horizon_s,
        }
        meta.update(live.meta)
        if sink is not None:
            meta["stream_path"] = str(sink.path)
            meta["stream_windows"] = sink.windows
            meta["stream_offset"] = sink.flush_offset()
        return save_checkpoint(path, live, records, meta)

    return save


#: What a run starts from: the live scenario plus, after a checkpoint
#: load, its resume records and manifest (``None`` and ``{}`` when built).
_Started = Tuple[LiveScenario, Optional[List[ResumeRecord]], Dict[str, Any]]


def _run(
    start: Callable[[], _Started],
    checkpoint_every_s: Optional[float],
    checkpoint_dir: Optional[Union[str, Path]],
    stream: Optional[Union[str, Path]],
) -> ScenarioResult:
    """The one run path behind every entry point.

    Refuses ``checkpoint_every_s`` without ``checkpoint_dir`` first, then
    gets the live scenario from ``start``, attaches the streaming sink,
    restores processes, drives to the horizon and finalizes.
    """
    if checkpoint_every_s is not None and checkpoint_dir is None:
        raise ValueError("checkpoint_every_s requires a checkpoint_dir")
    live, records, manifest = start()
    sink = None
    if stream is not None:
        # A resumed stream is truncated back to the checkpoint's fsynced
        # offset, deduplicating windows a crashed run re-emitted.
        offset = manifest.get("stream_offset")
        sink = StreamingMetricsSink(
            stream,
            label=live.config.name,
            resume_offset=None if offset is None else int(offset),
            resume_windows=int(manifest.get("stream_windows", 0)),
        )
        live.sampler.attach_sink(sink)
    if records is not None:
        restore_processes(live.env, records)
    coordinator = None
    if checkpoint_every_s is not None:
        coordinator = CheckpointCoordinator(
            live.env,
            checkpoint_every_s,
            checkpoint_dir,
            _make_save_fn(live, sink),
        )
        coordinator.start()
    live.env.run(until=live.horizon_s)
    result = finalize_scenario(live, checkpoints=coordinator)
    if sink is not None:
        sink.close()
    return result


def run_scenario(
    config: ManagerConfig,
    *,
    checkpoint_every_s: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    stream: Optional[Union[str, Path]] = None,
    **scenario: Any,
) -> ScenarioResult:
    """Run one managed-cluster simulation end to end.

    ``scenario`` is forwarded to :func:`build_scenario`, which documents
    every scenario parameter (cluster shape, fleet, horizon, seed,
    faults, tracing …).

    Args:
        config: the management policy (see :mod:`repro.core.policies`).
        checkpoint_every_s: write a crash-safe checkpoint at every
            multiple of this simulated interval (see
            :mod:`repro.core.checkpoint`); requires ``checkpoint_dir``.
        checkpoint_dir: directory receiving the checkpoint files.
        stream: emit per-window metrics incrementally to this JSONL path
            (see :mod:`repro.telemetry.stream`).
    """
    return _run(
        lambda: (build_scenario(config, **scenario), None, {}),
        checkpoint_every_s,
        checkpoint_dir,
        stream,
    )


def resume_scenario(
    checkpoint: Union[str, Path],
    *,
    config: Optional[ManagerConfig] = None,
    horizon_s: Optional[float] = None,
    checkpoint_every_s: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    stream: Optional[Union[str, Path]] = None,
) -> ScenarioResult:
    """Resume a checkpointed run and drive it to its horizon.

    Without ``config`` and ``horizon_s`` the resumed run's decision trace
    is byte-identical to the uninterrupted run's (the determinism oracle
    enforced by the differential and crash-injection suites).
    ``stream`` re-attaches the streaming sink: the file is truncated
    back to the checkpoint's fsynced offset.

    ``config`` branches the warm state under a different policy: the
    management plane is rebound to it (policy parameters only — plane
    architecture and DVFS wiring must match, see
    :func:`repro.core.checkpoint.rebind_config`).  ``horizon_s`` moves
    the horizon (default: the original one).  This is the
    SleepScale-style amortization: one warm-up, many policy variants.
    """

    def start() -> _Started:
        live, records, manifest = load_checkpoint(checkpoint)
        if stream is not None and "stream_offset" not in manifest:
            raise ValueError(
                "checkpoint {} was not taken from a streaming run; "
                "cannot resume its stream".format(checkpoint)
            )
        if config is not None:
            rebind_config(live.manager, config)
            live.config = config
        if horizon_s is not None:
            if horizon_s <= live.env.now:
                raise ValueError(
                    "branch horizon {}s is not after the checkpoint "
                    "instant {}s".format(horizon_s, live.env.now)
                )
            live.horizon_s = float(horizon_s)
        return live, records, manifest

    return _run(start, checkpoint_every_s, checkpoint_dir, stream)
