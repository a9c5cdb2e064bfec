"""Cluster: host inventory and aggregate accounting.

Host *views* (active, placeable, parked, …) are served from an
incremental index: each category keeps a position-sorted list of host
indices, re-filed by a callback the hosts fire at every membership
mutation (power-transition start/end, out-of-service, maintenance,
evacuating).  Views therefore cost O(category size) instead of an
O(hosts) predicate scan, while preserving exactly the inventory
iteration order — and hence the float accumulation order — of the
scans they replace.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.sim.environment import Environment
    from repro.telemetry.lattice import DemandLattice
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.faults import FaultModel
from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.fold import left_sum
from repro.power.dvfs import DvfsModel
from repro.power.profiles import ServerPowerProfile
from repro.power.states import PowerState


#: Membership bits for the incremental host index.
_B_ACTIVE = 1
_B_PLACEABLE = 2
_B_PARKED = 4
_B_OOS = 8
_B_TRANSIT = 16
_B_WAKING = 32
_B_EVACUATING = 64
#: The bits of :meth:`Cluster.host_masks`' rows, as a column.
_MASK_BITS = np.array([[_B_ACTIVE], [_B_PLACEABLE], [_B_EVACUATING]], dtype=np.int64)


def host_constants(
    hosts: List[Host],
) -> Tuple["npt.NDArray[np.float64]", "npt.NDArray[np.float64]"]:
    """The cores and memory capacity of ``hosts``, in order.

    Memory capacity is ``Host.mem_free_gb``'s ``mem_gb * mem_overcommit``,
    the same product elementwise.  Neither changes after a host is built:
    they are the constant entries of a planning view.
    """
    cores = np.array([h.cores for h in hosts], dtype=float)
    mem_capacity = np.array([h.mem_gb for h in hosts], dtype=float) * np.array(
        [h.mem_overcommit for h in hosts], dtype=float
    )
    return cores, mem_capacity


class Cluster:
    """A managed pool of hosts and the VMs running on them."""

    def __init__(self, env: "Environment", hosts: Iterable[Host]) -> None:
        self.env = env
        self.hosts: List[Host] = list(hosts)
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate host names")
        if not self.hosts:
            raise ValueError("cluster needs at least one host")
        self._vms: Dict[str, VM] = {}
        # Registry epoch for the cluster-level demand cache: bumps on
        # admit/retire so a cached total is never served across a
        # membership change.
        self._vm_epoch = 0
        self._demand_key: Optional[Tuple[float, int]] = None
        self._demand_value = 0.0
        #: The sampler's demand lattice (set by
        #: :class:`~repro.telemetry.lattice.DemandLattice`): serves the
        #: registry total at tick instants while ``_vm_epoch`` is still
        #: the one its class totals were built at.
        self._lattice: Optional["DemandLattice"] = None
        # Static inventory aggregates (the host list never changes after
        # construction; per-host cores/profiles are construction-time
        # constants).  Computed with the same expressions — and the same
        # accumulation order — as the scans they replace.
        self._total_capacity_cores = left_sum(h.cores for h in self.hosts)
        self._min_host_cores = min(h.cores for h in self.hosts)
        self._max_peak_w = max(h.profile.peak_w for h in self.hosts)
        self._host_cores_desc: List[float] = sorted(
            (h.cores for h in self.hosts), reverse=True
        )
        # Read by every round's planning view, by host position.
        self._host_constants = host_constants(self.hosts)
        # Incremental host index: per-category position-sorted lists plus
        # the current membership bitmask per host position.
        self._active: List[int] = []
        self._placeable: List[int] = []
        self._parked: List[int] = []
        self._oos: List[int] = []
        self._transitioning: List[int] = []
        self._waking: List[int] = []
        self._evacuating: List[int] = []
        self._index_lists: Tuple[Tuple[int, List[int]], ...] = (
            (_B_ACTIVE, self._active),
            (_B_PLACEABLE, self._placeable),
            (_B_PARKED, self._parked),
            (_B_OOS, self._oos),
            (_B_TRANSIT, self._transitioning),
            (_B_WAKING, self._waking),
            (_B_EVACUATING, self._evacuating),
        )
        self._pos: Dict[str, int] = {h.name: i for i, h in enumerate(self.hosts)}
        self._membership: List[int] = [0] * len(self.hosts)
        # Bumped on every index mutation; memoizes the capacity sums below
        # (recomputed with the identical scan when the index has changed,
        # so cached values are bit-for-bit what the scan would return).
        self._index_rev = 0
        self._active_capacity_rev = -1
        self._active_capacity = 0.0
        self._committed_capacity_rev = -1
        self._committed_capacity = 0.0
        # Each host's energy meter is created once and never replaced;
        # prebinding skips two attribute hops per host per power sample.
        self._meters = [h.machine.meter for h in self.hosts]
        for host in self.hosts:
            host._index_cb = self._reindex_host
            self._reindex_host(host)

    # ------------------------------------------------------------------
    # Host index maintenance
    # ------------------------------------------------------------------

    @staticmethod
    def _host_mask(host: Host) -> int:
        """Membership bitmask; predicates mirror the category views."""
        machine = host.machine
        in_transition = machine.in_transition
        mask = 0
        if host.is_active:
            mask |= _B_ACTIVE
            if not host.evacuating and not host.in_maintenance:
                mask |= _B_PLACEABLE
        if (
            not in_transition
            and host.state.is_parked
            and not host.out_of_service
            and not host.in_maintenance
        ):
            mask |= _B_PARKED
        if host.out_of_service:
            mask |= _B_OOS
        if in_transition:
            mask |= _B_TRANSIT
            if machine.target_state is PowerState.ACTIVE:
                mask |= _B_WAKING
        if host.evacuating:
            mask |= _B_EVACUATING
        return mask

    def _reindex_host(self, host: Host) -> None:  # reprolint: hot
        """Re-file one host after a membership mutation (index callback)."""
        pos = self._pos[host.name]
        mask = self._host_mask(host)
        old = self._membership[pos]
        if mask == old:
            return
        changed = mask ^ old
        for bit, positions in self._index_lists:
            if not changed & bit:
                continue
            if mask & bit:
                insort(positions, pos)
            else:
                del positions[bisect_left(positions, pos)]
        self._membership[pos] = mask
        self._index_rev += 1

    @classmethod
    def homogeneous(
        cls,
        env: "Environment",
        profile: ServerPowerProfile,
        n_hosts: int,
        cores: float = 16.0,
        mem_gb: float = 128.0,
        initial_state: PowerState = PowerState.ACTIVE,
        dvfs: Optional[DvfsModel] = None,
        dvfs_target: float = 0.8,
        faults: Optional[FaultModel] = None,
        fault_seed: int = 0,
        trace: Optional["TraceBuffer"] = None,
    ) -> "Cluster":
        """Build ``n_hosts`` identical hosts named ``host-000`` …"""
        if n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        hosts = [
            Host(
                env,
                "host-{:03d}".format(i),
                profile,
                cores=cores,
                mem_gb=mem_gb,
                initial_state=initial_state,
                dvfs=dvfs,
                dvfs_target=dvfs_target,
                faults=faults,
                fault_seed=fault_seed,
                trace=trace,
            )
            for i in range(n_hosts)
        ]
        return cls(env, hosts)

    @classmethod
    def heterogeneous(
        cls,
        env: "Environment",
        generations: List[Dict[str, Any]],
        fault_seed: int = 0,
        trace: Optional["TraceBuffer"] = None,
    ) -> "Cluster":
        """Build a mixed-generation cluster.

        ``generations`` is a list of dicts, each with keys ``count`` and
        ``profile`` plus any :class:`~repro.datacenter.Host` keyword
        arguments (``cores``, ``mem_gb``, ``dvfs``, ``faults`` …).  Hosts
        are named ``gen<i>-<j>``.
        """
        hosts: List[Host] = []
        for gen_index, spec in enumerate(generations):
            spec = dict(spec)
            count = spec.pop("count")
            profile = spec.pop("profile")
            if count < 1:
                raise ValueError("generation count must be >= 1")
            for j in range(count):
                hosts.append(
                    Host(
                        env,
                        "gen{}-{:03d}".format(gen_index, j),
                        profile,
                        fault_seed=fault_seed,
                        trace=trace,
                        **spec,
                    )
                )
        return cls(env, hosts)

    # ------------------------------------------------------------------
    # VM registry
    # ------------------------------------------------------------------

    @property
    def vms(self) -> List[VM]:
        return list(self._vms.values())

    @property
    def vm_count(self) -> int:
        return len(self._vms)

    def iter_vms(self) -> Iterable[VM]:
        """Iterate resident VMs without copying the registry (hot path)."""
        return self._vms.values()

    def add_vm(self, vm: VM, host: Host) -> None:
        """Admit ``vm`` into the cluster on ``host``."""
        if vm.name in self._vms:
            raise ValueError("duplicate VM name {}".format(vm.name))
        pos = self._pos.get(host.name)
        if pos is None or self.hosts[pos] is not host:
            raise ValueError("host {} is not in this cluster".format(host.name))
        host.place(vm)
        self._vms[vm.name] = vm
        self._vm_epoch += 1

    def remove_vm(self, vm: VM) -> None:
        """Retire ``vm`` (departure); it is unbound from its host."""
        if self._vms.pop(vm.name, None) is None:
            raise KeyError("VM {} not in cluster".format(vm.name))
        self._vm_epoch += 1
        if vm.host is not None:
            vm.host.remove(vm)

    def get_vm(self, name: str) -> VM:
        return self._vms[name]

    def has_vm(self, name: str) -> bool:
        """True if a VM called ``name`` is currently resident."""
        return name in self._vms

    # ------------------------------------------------------------------
    # Host views
    # ------------------------------------------------------------------

    def active_hosts(self) -> List[Host]:
        hosts = self.hosts
        return [hosts[i] for i in self._active]

    def placeable_hosts(self) -> List[Host]:
        hosts = self.hosts
        return [hosts[i] for i in self._placeable]

    def parked_hosts(self) -> List[Host]:
        """Parked hosts the manager may wake.

        Excludes failed hardware and hosts held for maintenance.
        """
        hosts = self.hosts
        return [hosts[i] for i in self._parked]

    def out_of_service_hosts(self) -> List[Host]:
        hosts = self.hosts
        return [hosts[i] for i in self._oos]

    def transitioning_hosts(self) -> List[Host]:
        hosts = self.hosts
        return [hosts[i] for i in self._transitioning]

    def waking_hosts(self) -> List[Host]:
        hosts = self.hosts
        return [hosts[i] for i in self._waking]

    def evacuating_hosts(self) -> List[Host]:
        """Hosts the manager is draining ahead of a park."""
        hosts = self.hosts
        return [hosts[i] for i in self._evacuating]

    def host_masks(self) -> "npt.NDArray[np.bool_]":
        """Rows of active, placeable and evacuating flags by host position, from the index."""
        bits = np.fromiter(self._membership, dtype=np.int64, count=len(self._membership))
        return (bits & _MASK_BITS) != 0

    # O(1) category counts, for telemetry that only needs sizes.

    def n_active_hosts(self) -> int:
        return len(self._active)

    def n_parked_hosts(self) -> int:
        return len(self._parked)

    def n_transitioning_hosts(self) -> int:
        return len(self._transitioning)

    def n_evacuating_hosts(self) -> int:
        return len(self._evacuating)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def active_capacity_cores(self) -> float:
        if self._active_capacity_rev != self._index_rev:
            hosts = self.hosts
            self._active_capacity = left_sum(hosts[i].cores for i in self._active)
            self._active_capacity_rev = self._index_rev
        return self._active_capacity

    def committed_capacity_cores(self) -> float:
        """Active capacity plus capacity already on its way up (waking)."""
        if self._committed_capacity_rev != self._index_rev:
            hosts = self.hosts
            self._committed_capacity = self.active_capacity_cores() + left_sum(
                hosts[i].cores for i in self._waking
            )
            self._committed_capacity_rev = self._index_rev
        return self._committed_capacity

    def evacuating_cores(self) -> float:
        """Cores on hosts being drained (imminently lost capacity)."""
        hosts = self.hosts
        return left_sum(hosts[i].cores for i in self._evacuating)

    def total_capacity_cores(self) -> float:
        return self._total_capacity_cores

    def min_host_cores(self) -> float:
        """Smallest host size in the (immutable) inventory."""
        return self._min_host_cores

    def max_peak_w(self) -> float:
        """Largest per-host peak draw in the inventory."""
        return self._max_peak_w

    def host_cores_desc(self) -> List[float]:
        """Host core sizes, largest first (callers must not mutate)."""
        return self._host_cores_desc

    def planning_constants(
        self,
    ) -> Tuple["npt.NDArray[np.float64]", "npt.NDArray[np.float64]"]:
        """:func:`host_constants` of the inventory, built once (callers must not mutate)."""
        return self._host_constants

    def demand_cores(self, t: Optional[float] = None) -> float:
        when = self.env.now if t is None else t
        key = (when, self._vm_epoch)
        if key == self._demand_key:
            return self._demand_value
        lattice = self._lattice
        value = None if lattice is None else lattice.registry_cores(when)
        if value is None:
            # Inline the per-VM memo fast path (see ``VM.demand_cores``):
            # at manager instants that coincide with a sampler tick every
            # VM is a memo hit, and skipping the method call halves the
            # walk's cost.  ``sum`` over the same registry order, starting
            # from zero, so the accumulation is bit-identical to the
            # genexpr it replaces.
            value = 0.0
            for vm in self._vms.values():
                value += (
                    vm._demand_value
                    if when == vm._demand_at_t
                    else vm.demand_cores(when)
                )
        self._demand_key = key
        self._demand_value = value
        return value

    def power_w(self) -> float:
        # ``_power_w`` is what the ``power_w`` property returns; reading
        # the slot directly skips 1 property dispatch per host per tick.
        return left_sum(m._power_w for m in self._meters)

    def energy_j(self) -> float:
        return left_sum(h.energy_j() for h in self.hosts)

    def __repr__(self) -> str:
        return "<Cluster {} hosts ({} active), {} VMs>".format(
            len(self.hosts), len(self.active_hosts()), len(self._vms)
        )
