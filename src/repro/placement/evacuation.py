"""Evacuation planning: empty a host so it can be parked."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.placement.planning import PlanningView
from repro.trace_events import EvacuationPlanned


#: Eight unit roundoffs (2**-53 each): the rounding allowance per VM of
#: :func:`bounded_demands` (see the proof there).
_ROUNDING = 2.0**-50


def bounded_demands(
    view: PlanningView, host: Host, movable: Sequence[VM], cpu_target: float
) -> Optional[List[Tuple[float, VM]]]:
    """``movable``'s ``(demand, vm)`` pairs, or None when they cannot all fit.

    The capacity bound: the VMs need more memory, or more CPU, than the
    targets (the placeable hosts of ``view`` other than ``host``) have
    spare together.  It never refuses a plan that best fit would
    complete.  Memory is checked first, so a refusal on memory reads no
    demand.

    Proof for CPU; memory is the same argument over ``mem_gb`` and the
    free-memory budgets.  Let ``b_i`` be target ``i``'s budget, ``P``
    the exact total of ``max(b_i, 0)`` over the targets other than
    ``host``, ``n`` the number of VMs, ``e = 1e-9`` and ``u = 2**-53``.
    Best fit puts a VM of demand ``d >= 0`` on a target whose running
    budget is ``r`` only if ``d <= fl(r + e)``, then sets
    ``r = fl(r - d)``.

    1. A target with ``b_i < -e`` takes nothing: ``fl(b_i + e) < 0``.
       Any other target that takes ``k`` VMs takes at most
       ``max(b_i, 0) + e + k*u*(max(b_i, 0) + 2e)``.  In exact
       arithmetic the last VM's test bounds the total by ``b_i + e``;
       each of the ``k`` roundings that test depends on moves it by at
       most ``u`` times a value of magnitude at most
       ``max(b_i, 0) + 2e`` (to first order in ``u``, as below).  A
       complete plan uses at most ``n`` targets, so its exact demand
       ``D`` is at most ``P + n*e + n*u*(P + 2e)``.
    2. The left fold ``need`` is at most ``D*(1 + n*u/(1 - n*u))``.
       ``spare_cpu`` (:meth:`~repro.placement.planning.PlanningView.budgets`)
       is the correctly rounded total of every placeable host's positive
       budget, and subtracting ``host``'s own share (when it is
       placeable in the view) rounds once more, so the spare the test
       compares with, ``spare``, is at least ``P - 2u*spare_cpu`` to
       first order in ``u``.
    3. So a complete plan has ``need - spare - n*e`` at most about
       ``(2n + 3)*u*(spare_cpu + n*e)``.  The allowance
       ``(n + 2)*8u*(spare_cpu + n*e)`` covers that and the roundings
       of the test itself; the bound refuses only above it.
    """
    cpu_budget, mem_budget, spare_cpu, spare_mem = view.budgets(cpu_target)
    cpu, mem = spare_cpu, spare_mem
    own = view.position(host)
    if own is not None and view.placeable.item(own):
        # Best fit skips the host itself: its own budget is no spare.
        share = cpu_budget.item(own)
        cpu -= share if share > 0.0 else 0.0
        share = mem_budget.item(own)
        mem -= share if share > 0.0 else 0.0
    n = len(movable)
    slack = n * 1e-9
    rounding = (n + 2) * _ROUNDING
    need = 0.0
    for vm in movable:
        need += vm.mem_gb
    if need > mem + slack + rounding * (spare_mem + slack):
        return None
    now = view.now
    demands = [(vm.demand_cores(now), vm) for vm in movable]
    need = 0.0
    for demand, _ in demands:
        need += demand
    if need > cpu + slack + rounding * (spare_cpu + slack):
        return None
    return demands


def plan_evacuation(
    view: PlanningView,
    host: Host,
    cpu_target: float,
    trace: Optional["TraceBuffer"] = None,
) -> Optional[List[Tuple[VM, Host]]]:
    """Plan destinations for every VM on ``host``, or None if impossible.

    Best fit over the budgets of ``view``'s placeable hosts at
    ``cpu_target``, ``host`` itself skipped, so evacuations concentrate
    load (the consolidation objective) rather than spreading it.  Every
    plan starts from the view's budgets on copies, so a caller that
    plans several hosts on one view (a shrink round) reads them once.

    Returns a list of ``(vm, destination)`` pairs covering *all* resident,
    non-migrating VMs; a partial evacuation is useless for parking, so a
    single unplaceable VM fails the whole plan.  Every outcome is one
    ``evacuation-planned`` event on ``trace``.
    """
    now = view.now
    cpu_budget, mem_budget, _, _ = view.budgets(cpu_target)
    movable = [vm for vm in host.vms.values() if not vm.migrating]
    if len(movable) != len(host.vms):
        # In-flight migrations pin the host; caller should retry later.
        if trace is not None:
            trace.emit(EvacuationPlanned(now, host.name, len(host.vms), ok=False))
        return None
    # One demand read per VM, for the bound and for best fit.
    demands = bounded_demands(view, host, movable, cpu_target)
    if demands is None:
        # Best fit would fail too: the event it would emit.
        if trace is not None:
            trace.emit(EvacuationPlanned(now, host.name, len(movable), ok=False))
        return None
    hosts = view.hosts
    usable = view.placeable.copy()
    own = view.position(host)
    if own is not None:
        usable[own] = False
    cpu = cpu_budget.copy()
    mem = mem_budget.copy()
    # Each budget plus the fit tolerance, kept in step with it.
    cpu_room = cpu + 1e-9
    mem_room = mem + 1e-9
    #: Groups this plan has put on a target so far, by view position.
    added: Dict[int, Set[str]] = {}
    plan: List[Tuple[VM, Host]] = []
    # Largest first, ties in residence order (a stable reverse sort,
    # as ``sorted(..., reverse=True)`` keeps).
    for demand, vm in sorted(demands, key=itemgetter(0), reverse=True):
        mem_gb = vm.mem_gb
        group = vm.anti_affinity_group
        # Best fit: least slack left; the first target wins a tie.
        fits = usable & (demand <= cpu_room) & (mem_gb <= mem_room)
        slack = np.where(fits, cpu - demand, np.inf)
        while True:
            best = int(slack.argmin())
            if not fits[best]:
                if trace is not None:
                    trace.emit(EvacuationPlanned(now, host.name, len(movable), ok=False))
                return None
            if group is None or not _holds(hosts[best], group, added.get(best)):
                break
            fits[best] = False
            slack[best] = np.inf
        cpu[best] -= demand
        mem[best] -= mem_gb
        cpu_room[best] = cpu[best] + 1e-9
        mem_room[best] = mem[best] + 1e-9
        if group is not None:
            added.setdefault(best, set()).add(group)
        plan.append((vm, hosts[best]))
    if trace is not None:
        trace.emit(EvacuationPlanned(now, host.name, len(plan), ok=True))
    return plan


def _holds(target: Host, group: str, added: Optional[Set[str]]) -> bool:
    """True when ``target`` has, reserves, or was planned a VM of ``group``."""
    return (
        target.hosts_group(group)
        or group in target.groups_reserved
        or (added is not None and group in added)
    )
