"""Evacuation planning: empty a host so it can be parked."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.trace_events import EvacuationPlanned


class TargetView:
    """The evacuation budgets of a target list at one instant.

    Built once from ``targets`` (the usable ones, in order); every
    :meth:`plan` starts from these budgets on copy-on-write copies, so
    a caller that plans several hosts while nothing the budgets read can
    change (one shrink round: the evacuations it starts run at a later
    event) builds them once instead of once per host.  A host that
    starts evacuating must leave the view (:meth:`drop`), as it leaves
    the placeable set.
    """

    __slots__ = ("now", "hosts", "cpu", "mem", "groups")

    def __init__(
        self, targets: Iterable[Host], cpu_target: float, now: float
    ) -> None:
        if not 0.0 < cpu_target <= 1.0:
            raise ValueError("cpu_target must be in (0, 1]")
        usable = [t for t in targets if t.available_for_placement]
        self.now = now
        self.hosts = usable
        self.cpu = [t.cores * cpu_target - t.resident_demand_cores(now) for t in usable]
        self.mem = [t.mem_free_gb for t in usable]
        # Same set as scanning every resident VM for its group, served
        # from the host's live group multiset in O(groups) instead.
        self.groups: List[Set[str]] = [
            set(t._aa_groups) | t.groups_reserved for t in usable
        ]

    def drop(self, host: Host) -> None:
        """Take ``host`` out of every later plan (it started evacuating)."""
        for i, t in enumerate(self.hosts):
            if t is host:
                del self.hosts[i], self.cpu[i], self.mem[i], self.groups[i]
                return

    def plan(
        self, host: Host, trace: Optional["TraceBuffer"] = None
    ) -> Optional[List[Tuple[VM, Host]]]:
        """Plan ``host``'s evacuation onto the view; ``host`` is skipped."""
        now = self.now
        movable = [vm for vm in host.vms.values() if not vm.migrating]
        if len(movable) != len(host.vms):
            # In-flight migrations pin the host; caller should retry later.
            if trace is not None:
                trace.emit(EvacuationPlanned(now, host.name, len(host.vms), ok=False))
            return None
        hosts = self.hosts
        cpu = self.cpu[:]
        mem = self.mem[:]
        shared = self.groups
        groups = shared[:]
        plan: List[Tuple[VM, Host]] = []
        # One demand read per VM; largest first, ties in residence order
        # (a stable reverse sort, as ``sorted(..., reverse=True)`` keeps).
        for demand, vm in sorted(
            [(vm.demand_cores(now), vm) for vm in movable],
            key=itemgetter(0),
            reverse=True,
        ):
            mem_gb = vm.mem_gb
            group = vm.anti_affinity_group
            # Best fit: least slack left; the first target wins a tie.
            best = -1
            best_slack = 0.0
            for i, t in enumerate(hosts):
                budget = cpu[i]
                if (
                    demand <= budget + 1e-9
                    and mem_gb <= mem[i] + 1e-9
                    and t is not host
                    and (group is None or group not in groups[i])
                ):
                    slack = budget - demand
                    if best < 0 or slack < best_slack:
                        best, best_slack = i, slack
            if best < 0:
                if trace is not None:
                    trace.emit(EvacuationPlanned(now, host.name, len(movable), ok=False))
                return None
            cpu[best] -= demand
            mem[best] -= mem_gb
            if group is not None:
                if groups[best] is shared[best]:
                    groups[best] = set(shared[best])
                groups[best].add(group)
            plan.append((vm, hosts[best]))
        if trace is not None:
            trace.emit(EvacuationPlanned(now, host.name, len(plan), ok=True))
        return plan


def plan_evacuation(
    host: Host,
    targets: Sequence[Host],
    cpu_target: float = 0.85,
    trace: Optional["TraceBuffer"] = None,
    now: float = 0.0,
) -> Optional[List[Tuple[VM, Host]]]:
    """Plan destinations for every VM on ``host``, or None if impossible.

    Uses best-fit over the target hosts' remaining CPU/memory budgets so
    evacuations concentrate load (the consolidation objective) rather than
    spreading it.  Targets must not include ``host`` itself.

    Returns a list of ``(vm, destination)`` pairs covering *all* resident,
    non-migrating VMs; a partial evacuation is useless for parking, so a
    single unplaceable VM fails the whole plan.  This is the one-shot
    case of :class:`TargetView`: a view built for one plan.
    """
    if host in targets:
        raise ValueError("evacuation targets must exclude the host itself")
    return TargetView(targets, cpu_target, now).plan(host, trace)
