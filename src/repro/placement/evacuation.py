"""Evacuation planning: empty a host so it can be parked."""

from __future__ import annotations

from math import fsum
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.trace_events import EvacuationPlanned


#: Eight unit roundoffs (2**-53 each): the rounding allowance per VM of
#: :meth:`TargetView.bounded_demands` (see the proof there).
_ROUNDING = 2.0**-50


class TargetView:
    """The evacuation budgets of a target list at one instant.

    Built once from ``targets`` (the usable ones, in order, each host
    once); every :meth:`plan` starts from these budgets on copy-on-write
    copies, so a caller that plans several hosts while nothing the
    budgets read can change (one shrink round: the evacuations it starts
    run at a later event) builds them once instead of once per host.  A
    host that starts evacuating must leave the view (:meth:`drop`), as it
    leaves the placeable set.  The view also keeps its spare capacity,
    the total of the positive budgets, so a plan that cannot fit is
    refused before best fit runs (:meth:`bounded_demands`).
    """

    __slots__ = ("now", "hosts", "cpu", "mem", "groups", "share", "spare_cpu", "spare_mem")

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
        #: Each target's positive CPU and memory budgets: its share of
        #: the spare, subtracted when the planned host is itself a target.
        self.share: Dict[Host, Tuple[float, float]] = {
            t: (c if c > 0.0 else 0.0, m if m > 0.0 else 0.0)
            for t, c, m in zip(usable, self.cpu, self.mem)
        }
        if len(self.share) != len(usable):
            raise ValueError("evacuation targets must be distinct hosts")
        self._total()

    def _total(self) -> None:
        # ``fsum`` is correctly rounded: the proof in ``bounded_demands``
        # needs one rounding of each total, whatever the fleet size.
        self.spare_cpu = fsum([c for c, _ in self.share.values()])
        self.spare_mem = fsum([m for _, m in self.share.values()])

    def drop(self, host: Host) -> None:
        """Take ``host`` out of every later plan (it started evacuating)."""
        for i, t in enumerate(self.hosts):
            if t is host:
                del self.hosts[i], self.cpu[i], self.mem[i], self.groups[i]
                del self.share[host]
                self._total()
                return

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
        own = self.share.get(host)
        if own is not None:
            # Best fit skips the host itself: its own budget is no spare.
            cpu -= own[0]
            mem -= own[1]
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
        cpu = self.cpu[:]
        mem = self.mem[:]
        shared = self.groups
        groups = shared[:]
        plan: List[Tuple[VM, Host]] = []
        # Largest first, ties in residence order (a stable reverse sort,
        # as ``sorted(..., reverse=True)`` keeps).
        for demand, vm in sorted(demands, key=itemgetter(0), reverse=True):
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
