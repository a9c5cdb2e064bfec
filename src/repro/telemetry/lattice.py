"""The demand lattice: every precomputed demand value, in one place."""

from __future__ import annotations

from itertools import compress, count
from operator import ne
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

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
    are float64 arrays; the host and class rows of the slot last asked for
    are materialized once as Python floats, and a VM's value is read from
    the slot's row with ``.item(col)``.  ``VM``, ``Host`` and ``Cluster``
    reach the lattice through their ``_lattice`` field, which only this
    class sets.  The sampler's tick rebuilds a host's rows
    (:meth:`rebuild_host`) or the class rows (:meth:`rebuild_classes`) in
    place, from its slot to the chunk's end, when their epoch moved since
    the fill.  A read answers
    None, and the caller walks the traces, for an instant off the lattice
    or outside the chunk, a VM without a row (admitted after the fill, or
    its trace goes negative inside the chunk), a host whose
    ``_demand_epoch`` moved since its rows were built, class totals whose
    ``_vm_epoch`` moved, and a slot before the one rows were rebuilt from.
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
        #: Per VM column, its priority (the class rebuild's lanes).
        self._vm_class = np.zeros(0, dtype=np.intp)
        self._hosts = np.zeros((0, 3, 0))
        self._classes = np.zeros((0, 4))
        #: VM -> its column of the VM rows; only VMs that have a row.
        self.vm_col: Dict["VM", int] = {}
        #: Per host position, the ``_demand_epoch`` its rows were built at
        #: (-1: no rows); ``_vm_epoch`` of the class totals (None: a VM
        #: was left off).
        self.host_tags: List[int] = [-1] * len(cluster.hosts)
        self.class_tag: Optional[int] = None
        #: The first slot that holds them: 0 from the fill, later once
        #: rebuilt; slots before it hold rows of an older epoch.
        self.host_from: List[int] = [0] * len(cluster.hosts)
        self.class_from = 0
        #: VM rows for the class and host rebuilds of VMs the fill left
        #: off, valid from the slot they were made at (None: the trace goes
        #: negative there, so the VM keeps the scalar walk).
        self.late_rows: Dict["VM", Optional[np.ndarray]] = {}
        # The selected slot: its instant, position and values, in the row
        # orders.
        self._t: Optional[float] = None
        self._j = 0
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
        self._j = j
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
        return None if col is None else self._vm.item(self._j, col)

    def vm_slot(self) -> np.ndarray:
        """The selected slot's VM row, by column (read it with ``.item(col)``).

        Before the first fill there is no slot: an empty row stands in.
        """
        return self._vm[self._j] if self._n else self._vm.reshape(0)

    def resident_cores(self, host: "Host", t: float) -> Optional[float]:
        if t != self._t and not self._select(t):
            return None
        k = self._host_pos[host]
        if self.host_tags[k] == host._demand_epoch and self.host_from[k] <= self._j:
            return self.resident_now[k]
        return None

    def resident_row(self, t: float) -> Optional[Tuple[np.ndarray, List[int]]]:
        """``t``'s resident row, as a fresh array, and the positions of its stale rows.

        A row is stale where :meth:`resident_cores` would refuse it: the
        host's ``_demand_epoch`` moved since the row was built, or the row
        was rebuilt from a later slot.  None when ``t`` has no slot.
        """
        if t != self._t and not self._select(t):
            return None
        j = self._j
        epochs = [host._demand_epoch for host in self.cluster.hosts]
        flags: Iterable[bool] = map(ne, self.host_tags, epochs)
        if max(self.host_from) > j:
            flags = (moved or start > j for moved, start in zip(flags, self.host_from))
        return self._hosts[j, 0].copy(), list(compress(count(), flags))

    def registry_cores(self, t: float) -> Optional[float]:
        if t != self._t and not self._select(t):
            return None
        if self.class_tag == self.cluster._vm_epoch and self.class_from <= self._j:
            return self.classes_now[3]
        return None

    def rebuild_host(self, k: int, host: "Host") -> bool:
        """Rebuild host ``k``'s rows from the selected slot; False if a VM has none.

        The fill's expressions on the rest of the chunk: the resident row
        is a sum from zero in VM-dict order, utilization is
        ``min(resident / cores, 1.0)`` and wattage the model's
        ``power_at_grid``.  The selected slot's values are refreshed in
        place.
        """
        j = self._j
        rows = []
        for vm in host.vms.values():
            c = self.vm_col.get(vm)
            if c is not None:
                rows.append(self._vm[j:, c])
            else:
                row = self.late_rows.get(vm)
                if row is None:
                    return False
                rows.append(row[j:])
        resident = np.zeros(self._n - j)
        for row in rows:
            resident += row
        util = np.minimum(resident / host.cores, 1.0)
        power = host.machine.profile.active_model.power_at_grid(util)
        block = self._hosts[j:]
        block[:, 0, k] = resident
        block[:, 1, k] = util
        block[:, 2, k] = power
        self.host_tags[k] = host._demand_epoch
        self.host_from[k] = j
        self.resident_now[k] = resident.item(0)
        self.util_now[k] = util.item(0)
        self.power_now[k] = power.item(0)
        return True

    def rebuild_classes(self) -> bool:
        """Rebuild the class rows from the selected slot; False if a VM has none.

        VMs the fill left off get rows from one :func:`trace_grids` call
        over the rest of the chunk, unless their trace goes negative
        there.  The rows then total in registry order from zero, as the
        fill adds them: ``np.add.accumulate`` along a block whose first
        column is zero computes ``((0 + r1) + r2) + ...`` element by
        element, and each class total runs the same fold over a zero
        column and its own VMs' rows, in registry order.
        """
        j = self._j
        cluster = self.cluster
        vms = list(cluster.iter_vms())
        col = self.vm_col
        late = self.late_rows
        pos = np.array([col.get(vm, -1) for vm in vms], dtype=np.intp)
        missing = np.flatnonzero(pos < 0).tolist()
        fresh = [vms[i] for i in missing if vms[i] not in late]
        if fresh:
            n = self._n
            epoch = self.epoch_s
            g = trace_grids(
                [vm.trace for vm in fresh],
                [i * epoch for i in range(self._i0 + j, self._i0 + n)],
            )
            negative = g.min(axis=1) < 0.0
            np.minimum(g, 1.0, out=g)
            g *= np.array([vm.vcpus for vm in fresh])[:, None]
            for vm, row, neg in zip(fresh, g, negative):
                if neg:
                    late[vm] = None
                else:
                    # Slots before ``j`` are never read: rebuilds only
                    # move forward through the chunk.
                    late[vm] = full = np.full(n, np.nan)
                    full[j:] = row
        late_cols = []
        for i in missing:
            row = late[vms[i]]
            if row is None:
                return False
            late_cols.append((i, row))
        # Slot-major, VM rows as columns in registry order after a zero
        # column, so every fold runs along contiguous memory.
        block = np.empty((self._n - j, len(vms) + 1))
        block[:, 0] = 0.0
        have = np.flatnonzero(pos >= 0)
        block[:, have + 1] = self._vm[j:, pos[have]]
        priority = np.empty(len(vms), dtype=np.intp)
        priority[have] = self._vm_class[pos[have]]
        for i, row in late_cols:
            block[:, i + 1] = row[j:]
            priority[i] = vms[i].priority
        zero = np.zeros(1, dtype=np.intp)
        members = [np.flatnonzero(priority == p) + 1 for p in range(3)]
        lanes = block[:, np.concatenate([zero, members[0], zero, members[1], zero, members[2]])]
        classes = self._classes[j:]
        a = 0
        for p, m in enumerate(members):
            lane = lanes[:, a : a + 1 + len(m)]
            classes[:, p] = np.add.accumulate(lane, axis=1, out=lane)[:, -1]
            a += 1 + len(m)
        classes[:, 3] = np.add.accumulate(block, axis=1, out=block)[:, -1]
        self.class_tag = cluster._vm_epoch
        self.class_from = j
        self.classes_now = self._classes[j].tolist()
        return True

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
        self._vm_class = np.array([vm.priority for vm in vms], dtype=np.intp)
        self._hosts = np.stack((resident, util, power)).transpose(2, 0, 1).copy()
        self._classes = classes.T.copy()
        self.host_tags = tags
        self.class_tag = cluster._vm_epoch if len(vms) == cluster.vm_count else None
        self.host_from = [0] * len(hosts)
        self.class_from = 0
        self.late_rows = {}
        self._t = None
