"""The demand lattice: every precomputed demand value, in one place."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.workload.traces import trace_grid

if TYPE_CHECKING:
    from repro.datacenter import VM, Cluster, Host


class DemandLattice:
    """Demand at the next :data:`CHUNK_TICKS` sampler ticks, owned by the sampler.

    Each fill evaluates every VM's trace over the chunk in one vectorized
    pass and accumulates each host's resident, utilization and wattage
    rows and the registry-order class totals in the scalar walks' orders,
    so every value is bit-identical to the scalar ``Trace.at`` walk.  Rows
    are float64 arrays; the slot last asked for is materialized once as
    Python floats.  ``VM``, ``Host`` and ``Cluster`` reach the lattice
    through their ``_lattice`` field, which only this class sets.  A read
    answers None, and the caller walks the traces, for an instant off the
    lattice or outside the chunk, a VM without a row (admitted after the
    fill, or its trace goes negative inside the chunk), a host whose
    ``_demand_epoch`` moved since the fill, and class totals whose
    ``_vm_epoch`` moved.
    """

    CHUNK_TICKS = 128

    def __init__(self, cluster: "Cluster", epoch_s: float) -> None:
        self.cluster = cluster
        self.epoch_s = epoch_s
        self._host_pos: Dict["Host", int] = {h: k for k, h in enumerate(cluster.hosts)}
        # The filled chunk holds ticks ``[_i0, _i0 + _n)``; rows indexed
        # (tick, VM column), (tick, resident/util/power, host position)
        # and (tick, gold/silver/bronze/all).
        self._i0 = 0
        self._n = 0
        self._vm = np.zeros((0, 0))
        self._hosts = np.zeros((0, 3, 0))
        self._classes = np.zeros((0, 4))
        #: VM -> its column of the VM rows; only VMs that have a row.
        self.vm_col: Dict["VM", int] = {}
        #: Per host position, the ``_demand_epoch`` its rows were built at
        #: (-1: no rows); ``_vm_epoch`` of the class totals (None: a VM
        #: was left off).
        self.host_tags: List[int] = [-1] * len(cluster.hosts)
        self.class_tag: Optional[int] = None
        # The selected slot: its instant and its values, in the row orders.
        self._t: Optional[float] = None
        self.vm_now: List[float] = []
        self.resident_now: List[float] = []
        self.util_now: List[float] = []
        self.power_now: List[float] = []
        self.classes_now: List[float] = []
        cluster._lattice = self
        for host in cluster.hosts:
            host._lattice = self

    def _select(self, t: float, refill: bool = False) -> bool:
        """Make ``t``'s slot current; False when ``t`` has none.

        The only place an instant becomes a slot: event times are
        accumulated float sums, so ``t`` is tick ``i`` only when
        ``i * epoch_s == t`` exactly.  Only the sampler's tick
        (``refill``) refills a chunk that does not hold ``t``.
        """
        eps = self.epoch_s
        i = int(t / eps + 0.5)
        if i * eps != t:
            return False
        j = i - self._i0
        if not 0 <= j < self._n:
            if not refill:
                return False
            self._fill(i)
            j = 0
        self._t = t
        self.vm_now = self._vm[j].tolist()
        self.resident_now, self.util_now, self.power_now = self._hosts[j].tolist()
        self.classes_now = self._classes[j].tolist()
        return True

    def tick(self, now: float) -> bool:
        """Select the sampler tick ``now``, refilling at a chunk boundary."""
        return now == self._t or self._select(now, refill=True)

    def vm_cores(self, vm: "VM", t: float) -> Optional[float]:
        if t != self._t and not self._select(t):
            return None
        col = self.vm_col.get(vm)
        return None if col is None else self.vm_now[col]

    def resident_cores(self, host: "Host", t: float) -> Optional[float]:
        if t != self._t and not self._select(t):
            return None
        k = self._host_pos[host]
        return self.resident_now[k] if self.host_tags[k] == host._demand_epoch else None

    def registry_cores(self, t: float) -> Optional[float]:
        if t != self._t and not self._select(t):
            return None
        return self.classes_now[3] if self.class_tag == self.cluster._vm_epoch else None

    def _fill(self, i0: int) -> None:
        """Fill the chunk of ticks ``[i0, i0 + CHUNK_TICKS)``.

        Shared sub-traces are evaluated once (the ``trace_grid`` cache);
        host rows sum VM rows in VM-dict order and class rows in registry
        order, from zero, and utilization and wattage repeat the per-tick
        expressions elementwise.
        """
        n = self.CHUNK_TICKS
        epoch = self.epoch_s
        ticks = [i * epoch for i in range(i0, i0 + n)]
        cache: dict = {}
        cluster = self.cluster
        classes = np.zeros((4, n))
        gold, silver, bronze, total = classes
        rows: Dict["VM", np.ndarray] = {}
        for vm in cluster.iter_vms():
            arr = trace_grid(vm.trace, ticks, cache)
            if arr.min() < 0.0:
                # A negative demand must raise from the scalar read at the
                # exact instant it is reached: keep this VM off the lattice.
                continue
            g = np.minimum(arr, 1.0) * vm.vcpus
            rows[vm] = g
            vm._lattice = self
            total += g
            p = vm.priority
            if p == 0:
                gold += g
            elif p == 1:
                silver += g
            else:
                bronze += g
        hosts = np.zeros((3, len(cluster.hosts), n))
        tags = [-1] * len(cluster.hosts)
        for k, host in enumerate(cluster.hosts):
            if not host.vms:
                continue
            acc = np.zeros(n)
            for vm in host.vms.values():
                g = rows.get(vm)
                if g is None:
                    break
                acc += g
            else:
                util = np.minimum(acc / host.cores, 1.0)
                power = host.machine.profile.active_model.power_at_grid(util)
                hosts[:, k] = acc, util, power
                tags[k] = host._demand_epoch
        self._i0 = i0
        self._n = n
        self.vm_col = {vm: c for c, vm in enumerate(rows)}
        self._vm = np.stack(list(rows.values()), axis=1) if rows else np.zeros((n, 0))
        # Slot-major, so one tick's rows are one contiguous block.
        self._hosts = hosts.transpose(2, 0, 1).copy()
        self._classes = classes.T.copy()
        self.host_tags = tags
        self.class_tag = cluster._vm_epoch if len(rows) == cluster.vm_count else None
        self._t = None
