"""Bin-packing planners for initial and consolidated VM placement.

Two classic heuristics (first-fit decreasing and best-fit decreasing) over
a two-dimensional constraint: memory is hard, CPU is a soft target — a
host is considered full once its *expected* demand reaches
``cpu_target × cores``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.fold import left_sum

DemandFn = Callable[[VM], float]


class PackingError(RuntimeError):
    """Raised when not every VM can be placed under the constraints."""

    def __init__(self, unplaced: Sequence[VM]) -> None:
        super().__init__(
            "could not place {} VMs: {}".format(
                len(unplaced), [vm.name for vm in unplaced][:5]
            )
        )
        self.unplaced = list(unplaced)


def _default_demand(vm: VM) -> float:
    """Conservative default: plan for the VM's full vCPU reservation."""
    return vm.vcpus


class _Bin:
    """Mutable planning view of one host."""

    def __init__(self, host: Host, cpu_target: float, demand_fn: DemandFn) -> None:
        self.host = host
        self.cpu_budget = host.cores * cpu_target - left_sum(
            demand_fn(vm) for vm in host.vms.values()
        )
        self.mem_budget = host.mem_free_gb
        self.groups = {
            vm.anti_affinity_group
            for vm in host.vms.values()
            if vm.anti_affinity_group is not None
        } | set(host.groups_reserved)

    def fits(self, vm: VM, demand: float) -> bool:
        if demand > self.cpu_budget + 1e-9 or vm.mem_gb > self.mem_budget + 1e-9:
            return False
        if vm.anti_affinity_group is not None and vm.anti_affinity_group in self.groups:
            return False
        return True

    def add(self, vm: VM, demand: float) -> None:
        self.cpu_budget -= demand
        self.mem_budget -= vm.mem_gb
        if vm.anti_affinity_group is not None:
            self.groups.add(vm.anti_affinity_group)


def _plan(
    vms: Iterable[VM],
    hosts: Sequence[Host],
    cpu_target: float,
    demand_fn: DemandFn,
    choose: Callable[[List["_Bin"], VM, float], Optional["_Bin"]],
) -> Dict[VM, Host]:
    if not 0.0 < cpu_target <= 1.0:
        raise ValueError("cpu_target must be in (0, 1]")
    bins = [_Bin(h, cpu_target, demand_fn) for h in hosts]
    ordered = sorted(vms, key=demand_fn, reverse=True)
    plan: Dict[VM, Host] = {}
    unplaced: List[VM] = []
    for vm in ordered:
        demand = demand_fn(vm)
        target = choose(bins, vm, demand)
        if target is None:
            unplaced.append(vm)
        else:
            target.add(vm, demand)
            plan[vm] = target.host
    if unplaced:
        raise PackingError(unplaced)
    return plan


def first_fit_decreasing(
    vms: Iterable[VM],
    hosts: Sequence[Host],
    cpu_target: float = 0.85,
    demand_fn: DemandFn = _default_demand,
) -> Dict[VM, Host]:
    """FFD: largest VMs first, each onto the first host with room."""

    def choose(bins, vm, demand):
        for b in bins:
            if b.fits(vm, demand):
                return b
        return None

    return _plan(vms, hosts, cpu_target, demand_fn, choose)


def best_fit_decreasing(
    vms: Iterable[VM],
    hosts: Sequence[Host],
    cpu_target: float = 0.85,
    demand_fn: DemandFn = _default_demand,
) -> Dict[VM, Host]:
    """BFD: largest VMs first, each onto the tightest host that still fits."""

    def choose(bins, vm, demand):
        candidates = [b for b in bins if b.fits(vm, demand)]
        if not candidates:
            return None
        return min(candidates, key=lambda b: b.cpu_budget - demand)

    return _plan(vms, hosts, cpu_target, demand_fn, choose)


def dot_product_packing(
    vms: Iterable[VM],
    hosts: Sequence[Host],
    cpu_target: float = 0.85,
    demand_fn: DemandFn = _default_demand,
) -> Dict[VM, Host]:
    """Vector (2-D) packing via the dot-product heuristic.

    CPU and memory are both real constraints; 1-D heuristics can strand
    one dimension (memory-full hosts with idle cores).  Dot-product
    packing places each VM onto the *open* host whose remaining-capacity
    vector best aligns with the VM's demand vector, so the two dimensions
    deplete together.  Hosts are opened lazily (first-fit order), which
    keeps the consolidation objective.
    """
    if not 0.0 < cpu_target <= 1.0:
        raise ValueError("cpu_target must be in (0, 1]")
    bins = [_Bin(h, cpu_target, demand_fn) for h in hosts]
    # Normalization scales so CPU and memory are comparable.
    cpu_scale = max((h.cores * cpu_target for h in hosts), default=1.0)
    mem_scale = max((h.mem_gb for h in hosts), default=1.0)
    ordered = sorted(
        vms,
        key=lambda vm: demand_fn(vm) / cpu_scale + vm.mem_gb / mem_scale,
        reverse=True,
    )
    plan: Dict[VM, Host] = {}
    unplaced: List[VM] = []
    open_count = 1
    for vm in ordered:
        demand = demand_fn(vm)
        placed = False
        while not placed:
            candidates = [
                b for b in bins[:open_count] if b.fits(vm, demand)
            ]
            if candidates:
                best = max(
                    candidates,
                    key=lambda b: (
                        (demand / cpu_scale) * (b.cpu_budget / cpu_scale)
                        + (vm.mem_gb / mem_scale) * (b.mem_budget / mem_scale)
                    ),
                )
                best.add(vm, demand)
                plan[vm] = best.host
                placed = True
            elif open_count < len(bins):
                open_count += 1
            else:
                unplaced.append(vm)
                break
    if unplaced:
        raise PackingError(unplaced)
    return plan


def pack_onto_minimal_hosts(
    vms: Iterable[VM],
    hosts: Sequence[Host],
    cpu_target: float = 0.85,
    demand_fn: DemandFn = _default_demand,
) -> Tuple[Dict[VM, Host], List[Host]]:
    """Find the smallest host prefix that holds every VM (FFD inside).

    Returns ``(plan, spare_hosts)`` — ``spare_hosts`` are candidates for
    parking.  Hosts are tried in the order given, so pass an
    affinity-sorted list (e.g. already-loaded hosts first) to minimize the
    migrations the plan implies.
    """
    vm_list = list(vms)
    host_list = list(hosts)
    for k in range(1, len(host_list) + 1):
        try:
            plan = first_fit_decreasing(
                vm_list, host_list[:k], cpu_target=cpu_target, demand_fn=demand_fn
            )
        except PackingError:
            continue
        return plan, host_list[k:]
    raise PackingError(vm_list)
