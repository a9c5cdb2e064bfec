"""Evacuation planning: empty a host so it can be parked."""

from __future__ import annotations

from math import fsum
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.placement.planning import PlanningView
from repro.trace_events import EvacuationPlanned


#: Eight unit roundoffs (2**-53 each): the rounding allowance per VM of
#: :meth:`TargetView.bounded_demands` (see the proof there).
_ROUNDING = 2.0**-50


class TargetView:
    """The evacuation budgets of a planning view's placeable hosts.

    Built once from a :class:`~repro.placement.planning.PlanningView`
    (:meth:`of`), or from a target list as a one-shot view; every
    :meth:`plan` starts from these budgets on copies, so a caller that
    plans several hosts while nothing the budgets read can change (one
    shrink round: the evacuations it starts run at a later event) builds
    them once instead of once per host.  A host that starts evacuating
    must leave the view (:meth:`drop`), as it leaves the placeable set.
    ``hosts`` are the targets in view order, ``cpu`` and ``mem`` their
    budgets and ``share_cpu``/``share_mem`` the positive parts of those,
    whose totals ``spare_cpu``/``spare_mem`` let a plan that cannot fit
    be refused before best fit runs (:meth:`bounded_demands`).
    """

    __slots__ = (
        "now", "hosts", "index", "cpu", "mem",
        "share_cpu", "share_mem", "spare_cpu", "spare_mem",
    )

    def __init__(
        self, targets: Iterable[Host], cpu_target: float, now: float
    ) -> None:
        """A one-shot view: the usable ``targets``, in order, each once."""
        self._bind(PlanningView.of_hosts(targets, now), cpu_target)
        if len(self.index) != len(self.hosts):
            raise ValueError("evacuation targets must be distinct hosts")

    @classmethod
    def of(cls, view: PlanningView, cpu_target: float) -> "TargetView":
        """The placeable hosts of ``view``, read from its arrays."""
        targets = cls.__new__(cls)
        targets._bind(view, cpu_target)
        return targets

    def _bind(self, view: PlanningView, cpu_target: float) -> None:
        if not 0.0 < cpu_target <= 1.0:
            raise ValueError("cpu_target must be in (0, 1]")
        slots = np.flatnonzero(view.placeable)
        self.now = view.now
        self.hosts = [view.hosts[k] for k in slots.tolist()]
        #: Each target's index in ``hosts``.
        self.index = dict(zip(self.hosts, range(len(self.hosts))))
        self.cpu = view.cores[slots] * cpu_target - view.resident[slots]
        self.mem = view.mem_free()[slots]
        self.share_cpu = [c if c > 0.0 else 0.0 for c in self.cpu.tolist()]
        self.share_mem = [m if m > 0.0 else 0.0 for m in self.mem.tolist()]
        self._total()

    def _total(self) -> None:
        # ``fsum`` is correctly rounded: the proof in ``bounded_demands``
        # needs one rounding of each total, whatever the fleet size.
        self.spare_cpu = fsum(self.share_cpu)
        self.spare_mem = fsum(self.share_mem)

    def drop(self, host: Host) -> None:
        """Take ``host`` out of every later plan (it started evacuating)."""
        i = self.index.get(host)
        if i is None:
            return
        del self.hosts[i], self.share_cpu[i], self.share_mem[i]
        self.index = dict(zip(self.hosts, range(len(self.hosts))))
        self.cpu = np.delete(self.cpu, i)
        self.mem = np.delete(self.mem, i)
        self._total()

    def bounded_demands(
        self, host: Host, movable: Sequence[VM]
    ) -> Optional[List[Tuple[float, VM]]]:
        """``movable``'s ``(demand, vm)`` pairs, or None when they cannot all fit.

        The capacity bound: the VMs need more memory, or more CPU, than
        the targets other than ``host`` have spare together.  It never
        refuses a plan that best fit would complete.  Memory is checked
        first, so a refusal on memory reads no demand.

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
           ``spare_cpu`` is the correctly rounded total of every target's
           positive budget, and subtracting ``host``'s own share (when it
           is a target) rounds once more, so the spare the test compares
           with, ``spare``, is at least ``P - 2u*spare_cpu`` to first
           order in ``u``.
        3. So a complete plan has ``need - spare - n*e`` at most about
           ``(2n + 3)*u*(spare_cpu + n*e)``.  The allowance
           ``(n + 2)*8u*(spare_cpu + n*e)`` covers that and the roundings
           of the test itself; the bound refuses only above it.
        """
        cpu, mem = self.spare_cpu, self.spare_mem
        own = self.index.get(host)
        if own is not None:
            # Best fit skips the host itself: its own budget is no spare.
            cpu -= self.share_cpu[own]
            mem -= self.share_mem[own]
        n = len(movable)
        slack = n * 1e-9
        rounding = (n + 2) * _ROUNDING
        need = 0.0
        for vm in movable:
            need += vm.mem_gb
        if need > mem + slack + rounding * (self.spare_mem + slack):
            return None
        now = self.now
        demands = [(vm.demand_cores(now), vm) for vm in movable]
        need = 0.0
        for demand, _ in demands:
            need += demand
        if need > cpu + slack + rounding * (self.spare_cpu + slack):
            return None
        return demands

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
        # One demand read per VM, for the bound and for best fit.
        demands = self.bounded_demands(host, movable)
        if demands is None:
            # Best fit would fail too: the event it would emit.
            if trace is not None:
                trace.emit(EvacuationPlanned(now, host.name, len(movable), ok=False))
            return None
        hosts = self.hosts
        cpu = self.cpu.copy()
        mem = self.mem.copy()
        # Each budget plus the fit tolerance, kept in step with it.
        cpu_room = cpu + 1e-9
        mem_room = mem + 1e-9
        own = self.index.get(host)
        #: Groups this plan has put on a target so far, by target index.
        added: Dict[int, Set[str]] = {}
        plan: List[Tuple[VM, Host]] = []
        # Largest first, ties in residence order (a stable reverse sort,
        # as ``sorted(..., reverse=True)`` keeps).
        for demand, vm in sorted(demands, key=itemgetter(0), reverse=True):
            mem_gb = vm.mem_gb
            group = vm.anti_affinity_group
            # Best fit: least slack left; the first target wins a tie.
            fits = (demand <= cpu_room) & (mem_gb <= mem_room)
            if own is not None:
                fits[own] = False
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
