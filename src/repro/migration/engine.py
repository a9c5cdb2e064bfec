"""Migration execution: runs pre-copy migrations inside the simulation.

Responsibilities beyond the analytic model:

* throttling — a cluster-wide cap plus a per-host cap on concurrent
  migrations, as real hypervisor managers enforce;
* resource side-effects — CPU tax on both endpoints and a destination
  memory reservation for the full flight time;
* the atomic switch-over of the VM's placement at completion;
* a ledger the overhead experiments (T3/F7) read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.faults import MigrationFaultInjector
from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.fold import left_sum
from repro.migration.model import PreCopyModel
from repro.sim import Resource
from repro.trace_events import MigrationEnd, MigrationFailed, MigrationStart


@dataclass(frozen=True)
class MigrationRecord:
    """One completed (or aborted/failed) migration, for the overhead ledger.

    ``aborted`` marks a flight whose preconditions evaporated mid-copy
    (the VM departed, the destination went down); ``failed`` marks an
    injected mid-copy fault (see
    :class:`~repro.datacenter.faults.MigrationFaultModel`).  Either way
    the VM stayed on its source and the switch-over never happened.
    """

    vm_name: str
    src_name: str
    dst_name: str
    start_s: float
    duration_s: float
    downtime_s: float
    transferred_gb: float
    aborted: bool = False
    failed: bool = False


class MigrationEngine:
    """Schedules and executes live migrations on a cluster."""

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        model: Optional[PreCopyModel] = None,
        max_concurrent: int = 4,
        max_per_host: int = 2,
        trace: Optional["TraceBuffer"] = None,
        faults: Optional[MigrationFaultInjector] = None,
    ) -> None:
        if max_concurrent < 1 or max_per_host < 1:
            raise ValueError("concurrency caps must be >= 1")
        self.env = env
        self.model = model or PreCopyModel()
        self._cluster_slots = Resource(env, capacity=max_concurrent)
        self._host_slots: Dict[str, Resource] = {}
        self._max_per_host = max_per_host
        self._trace = trace
        #: Mid-copy failure injection (None = migrations cannot fail).
        self.faults = faults
        self.records: List[MigrationRecord] = []
        self.in_flight = 0
        self.completed = 0
        self.aborted = 0
        #: Injected mid-copy failures (rolled back; retry is the manager's job).
        self.failed = 0
        #: Total migrations admitted (drives unique trace migration ids).
        self.started = 0

    @property
    def can_fail(self) -> bool:
        """True when a mid-copy fault model is attached."""
        return self.faults is not None and self.faults.model.failure_rate > 0

    def _slots_for(self, host: Host) -> Resource:
        if host.name not in self._host_slots:
            self._host_slots[host.name] = Resource(
                self.env, capacity=self._max_per_host
            )
        return self._host_slots[host.name]

    def migrate(self, vm: VM, dst: Host) -> "Process":  # noqa: F821
        """Start a live migration of ``vm`` to ``dst``; returns the process.

        The process value is the :class:`MigrationRecord`.  Admission
        errors (wrong source, destination full) raise immediately, before
        any simulated time passes.
        """
        src = vm.host
        if src is None:
            raise RuntimeError("cannot migrate unplaced VM {}".format(vm.name))
        if src is dst:
            raise ValueError("source and destination are the same host")
        if vm.migrating:
            raise RuntimeError("{} is already migrating".format(vm.name))
        if not dst.is_active:
            raise RuntimeError(
                "destination {} is not active ({})".format(dst.name, dst.state.value)
            )
        if not dst.fits(vm):
            raise RuntimeError(
                "destination {} lacks memory for {}".format(dst.name, vm.name)
            )
        # Reserve immediately so concurrent planning can't oversubscribe
        # memory or violate anti-affinity with a second in-flight replica.
        dst.mem_reserved_gb += vm.mem_gb
        if vm.anti_affinity_group is not None:
            dst.groups_reserved.add(vm.anti_affinity_group)
        vm.migrating = True
        migration_id = "m{:06d}".format(self.started)
        self.started += 1
        if self._trace is not None:
            self._trace.emit(MigrationStart(
                self.env.now, migration_id, vm.name, src.name, dst.name
            ))
        return self.env.process(self._run(vm, src, dst, migration_id))

    @property
    def unfinished(self) -> int:
        """Migrations admitted but not yet finished or aborted."""
        return self.started - len(self.records)

    def _run(self, vm: VM, src: Host, dst: Host, migration_id: str = ""):
        outcome = self.model.solve(vm.mem_gb, vm.dirty_rate_gbps)
        # The fault draw happens at admission from a stream keyed on the
        # migration id, so the queueing below never shifts it.
        fail_fraction: Optional[float] = None
        if self.faults is not None:
            fail_fraction = self.faults.draw_failure(migration_id)
        start = self.env.now
        with self._cluster_slots.request() as cluster_slot:
            yield cluster_slot
            src_slots = self._slots_for(src)
            dst_slots = self._slots_for(dst)
            with src_slots.request() as src_slot:
                yield src_slot
                with dst_slots.request() as dst_slot:
                    yield dst_slot
                    self.in_flight += 1
                    src.migration_tax_cores += self.model.cpu_tax_cores
                    dst.migration_tax_cores += self.model.cpu_tax_cores
                    try:
                        if fail_fraction is not None:
                            yield self.env.timeout(
                                outcome.total_time_s * fail_fraction
                            )
                        else:
                            yield self.env.timeout(outcome.total_time_s)
                    finally:
                        src.migration_tax_cores -= self.model.cpu_tax_cores
                        dst.migration_tax_cores -= self.model.cpu_tax_cores
                        self.in_flight -= 1
                        dst.mem_reserved_gb -= vm.mem_gb
                        if vm.anti_affinity_group is not None:
                            dst.groups_reserved.discard(vm.anti_affinity_group)
                        vm.migrating = False

        failed = fail_fraction is not None
        # Abort if the VM departed / was moved out from under us, or the
        # destination stopped being a valid target mid-flight.  A failed
        # flight rolls back the same way: the VM never leaves the source.
        aborted = not failed and (vm.host is not src or not dst.is_active)
        if not failed and not aborted:
            src.remove(vm)
            dst.place(vm)
            vm.migration_count += 1
            self.completed += 1
        elif failed:
            self.failed += 1
        else:
            self.aborted += 1
        record = MigrationRecord(
            vm_name=vm.name,
            src_name=src.name,
            dst_name=dst.name,
            start_s=start,
            duration_s=self.env.now - start,
            # The switch-over never happened on a failed flight: no
            # downtime, and only the pre-fault share of the copy moved.
            downtime_s=0.0 if failed else outcome.downtime_s,
            transferred_gb=(
                outcome.transferred_gb * fail_fraction
                if fail_fraction is not None
                else outcome.transferred_gb
            ),
            aborted=aborted,
            failed=failed,
        )
        self.records.append(record)
        if self._trace is not None:
            if failed:
                self._trace.emit(MigrationFailed(
                    self.env.now,
                    migration_id,
                    vm.name,
                    src.name,
                    dst.name,
                    elapsed_s=record.duration_s,
                    fail_fraction=fail_fraction if fail_fraction is not None else 0.0,
                ))
            else:
                self._trace.emit(MigrationEnd(
                    self.env.now,
                    migration_id,
                    vm.name,
                    src.name,
                    dst.name,
                    aborted=aborted,
                    duration_s=record.duration_s,
                    downtime_s=record.downtime_s,
                    transferred_gb=record.transferred_gb,
                ))
        return record

    # ------------------------------------------------------------------
    # Ledger queries
    # ------------------------------------------------------------------

    def migrations_per_hour(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        return self.completed / (horizon_s / 3600.0)

    def total_transferred_gb(self) -> float:
        return left_sum(r.transferred_gb for r in self.records if not r.aborted)

    def total_downtime_s(self) -> float:
        return left_sum(r.downtime_s for r in self.records if not r.aborted)

    def total_migration_time_s(self) -> float:
        return left_sum(r.duration_s for r in self.records if not r.aborted)
