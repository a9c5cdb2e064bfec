"""Evacuation planning: empty a host so it can be parked."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.trace_events import EvacuationPlanned


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
    single unplaceable VM fails the whole plan.
    """
    if host in targets:
        raise ValueError("evacuation targets must exclude the host itself")
    if not 0.0 < cpu_target <= 1.0:
        raise ValueError("cpu_target must be in (0, 1]")

    def demand_fn(vm: VM) -> float:
        return vm.demand_cores(now)

    cpu_budget: Dict[str, float] = {}
    mem_budget: Dict[str, float] = {}
    groups: Dict[str, set] = {}
    usable = [t for t in targets if t.available_for_placement]
    for t in usable:
        cpu_budget[t.name] = t.cores * cpu_target - t.resident_demand_cores(now)
        mem_budget[t.name] = t.mem_free_gb
        # Same set as scanning every resident VM for its group, served
        # from the host's live group multiset in O(groups) instead.
        groups[t.name] = set(t._aa_groups) | t.groups_reserved

    movable = [vm for vm in host.vms.values() if not vm.migrating]
    if len(movable) != len(host.vms):
        # In-flight migrations pin the host; caller should retry later.
        if trace is not None:
            trace.emit(EvacuationPlanned(now, host.name, len(host.vms), ok=False))
        return None

    plan: List[Tuple[VM, Host]] = []
    for vm in sorted(movable, key=demand_fn, reverse=True):
        demand = demand_fn(vm)
        fitting = [
            t
            for t in usable
            if demand <= cpu_budget[t.name] + 1e-9
            and vm.mem_gb <= mem_budget[t.name] + 1e-9
            and (
                vm.anti_affinity_group is None
                or vm.anti_affinity_group not in groups[t.name]
            )
        ]
        if not fitting:
            if trace is not None:
                trace.emit(EvacuationPlanned(now, host.name, len(movable), ok=False))
            return None
        dst = min(fitting, key=lambda t: cpu_budget[t.name] - demand)
        cpu_budget[dst.name] -= demand
        mem_budget[dst.name] -= vm.mem_gb
        if vm.anti_affinity_group is not None:
            groups[dst.name].add(vm.anti_affinity_group)
        plan.append((vm, dst))
    if trace is not None:
        trace.emit(EvacuationPlanned(now, host.name, len(plan), ok=True))
    return plan
