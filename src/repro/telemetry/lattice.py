"""The demand lattice: every precomputed demand value, in one place."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.workload.traces import trace_grids

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
        """Fill the chunk of ticks ``[i0, i0 + CHUNK_TICKS)`` in array passes.

        One :func:`trace_grids` call evaluates every VM's trace, each
        shared sub-trace once.  Host rows add VM rows in VM-dict order,
        one pass per dict position over every host at once, and class rows
        add them in registry order; both start from zero and use only
        sequential adds, the scalar walks' orders.  Utilization and
        wattage repeat the per-tick expressions elementwise, one wattage
        pass per power model.
        """
        n = self.CHUNK_TICKS
        epoch = self.epoch_s
        cluster = self.cluster
        vms = list(cluster.iter_vms())
        g = trace_grids([vm.trace for vm in vms], [i * epoch for i in range(i0, i0 + n)])
        negative = g.min(axis=1) < 0.0
        if negative.any():
            # A negative demand must raise from the scalar read at the exact
            # instant it is reached: keep those VMs off the lattice.
            g = g[~negative]
            vms = [vm for vm, neg in zip(vms, negative) if not neg]
        np.minimum(g, 1.0, out=g)
        g *= np.array([vm.vcpus for vm in vms])[:, None]
        classes = np.zeros((4, n))
        by_class = classes[:3]
        total = classes[3]
        for vm, row in zip(vms, g):
            vm._lattice = self
            by_class[vm.priority] += row
            total += row
        col = {vm: c for c, vm in enumerate(vms)}
        hosts = cluster.hosts
        tags = [-1] * len(hosts)
        # Per VM-dict position: the hosts that have one, and its VM's column.
        slots: List[Tuple[List[int], List[int]]] = []
        models: Dict[object, List[int]] = {}
        for k, host in enumerate(hosts):
            models.setdefault(host.machine.profile.active_model, []).append(k)
            cols = [col.get(vm) for vm in host.vms.values()]
            if not cols or None in cols:
                continue
            tags[k] = host._demand_epoch
            for j, c in enumerate(cols):
                if j == len(slots):
                    slots.append(([], []))
                slots[j][0].append(k)
                slots[j][1].append(c)
        resident = np.zeros((len(hosts), n))
        for ks, cs in slots:
            resident[ks] += g[cs]
        util = np.minimum(resident / np.array([h.cores for h in hosts])[:, None], 1.0)
        power = np.empty_like(util)
        for model, ks in models.items():
            power[ks] = model.power_at_grid(util[ks].ravel()).reshape(len(ks), n)
        self._i0 = i0
        self._n = n
        self.vm_col = col
        # Slot-major, so one tick's rows are one contiguous block.
        self._vm = np.ascontiguousarray(g.T)
        self._hosts = np.stack((resident, util, power)).transpose(2, 0, 1).copy()
        self._classes = classes.T.copy()
        self.host_tags = tags
        self.class_tag = cluster._vm_epoch if len(vms) == cluster.vm_count else None
        self._t = None
