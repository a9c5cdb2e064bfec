"""Physical host model: capacity, placement accounting, power binding."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional, Set, Tuple

if TYPE_CHECKING:
    import numpy as np

    from repro.sim.environment import Environment
    from repro.sim.events import Event
    from repro.telemetry.lattice import DemandLattice
    from repro.telemetry.trace import TraceBuffer

from repro.datacenter.faults import FaultInjector, FaultModel
from repro.datacenter.vm import VM
from repro.power.dvfs import DvfsModel
from repro.power.machine import HostPowerStateMachine
from repro.power.profiles import ServerPowerProfile
from repro.power.states import PowerState
from repro.trace_events import HostInit


def _latency_rng(seed: int, name: str) -> "np.random.Generator":
    """Per-host seeded RNG for transition-latency jitter."""
    from repro.core.seeding import stream_rng

    return stream_rng("latency", seed, name)


class InsufficientCapacity(RuntimeError):
    """Raised when a VM does not fit on a host."""


class HostNotActive(RuntimeError):
    """Raised when placing onto / parking a host in the wrong power state."""


class Host:
    """A server: CPU/memory capacity plus a power-state machine.

    Memory is a hard constraint (no overcommit by default); CPU is not:
    demand above capacity goes undelivered, and the sampler's tick books
    that shortfall, class by class in strict priority, as a violation.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        profile: ServerPowerProfile,
        cores: float = 16.0,
        mem_gb: float = 128.0,
        initial_state: PowerState = PowerState.ACTIVE,
        mem_overcommit: float = 1.0,
        dvfs: Optional[DvfsModel] = None,
        dvfs_target: float = 0.8,
        faults: Optional[FaultModel] = None,
        fault_seed: int = 0,
        trace: Optional["TraceBuffer"] = None,
    ) -> None:
        if cores <= 0 or mem_gb <= 0:
            raise ValueError("cores and mem_gb must be positive")
        if mem_overcommit < 1.0:
            raise ValueError("mem_overcommit must be >= 1.0")
        #: Installed by :class:`~repro.datacenter.cluster.Cluster`; fired on
        #: every change to a membership-relevant bit (power state,
        #: out-of-service, maintenance, evacuating) so the cluster's host
        #: index stays current without rescanning the inventory.  Created
        #: first: the flag-backed properties below notify through it.
        self._index_cb: Optional[Callable[["Host"], None]] = None
        self.env = env
        self.name = name
        self.cores = float(cores)
        self.mem_gb = float(mem_gb)
        self.mem_overcommit = mem_overcommit
        #: Optional wake-failure injection (created before the power
        #: machine so chaos brownouts can scale its wake latency).
        self._injector = (
            FaultInjector(faults, fault_seed, name, trace=trace) if faults else None
        )
        self.machine = HostPowerStateMachine(
            env,
            profile,
            initial_state=initial_state,
            latency_rng=_latency_rng(fault_seed, name),
            name=name,
            trace=trace,
            wake_latency_scale=(
                self._injector.wake_latency_scale
                if self._injector is not None and faults is not None
                and faults.chaos is not None
                else None
            ),
        )
        if not 0.0 < dvfs_target <= 1.0:
            raise ValueError("dvfs_target must be in (0, 1]")
        self.machine.on_change = self._membership_changed
        self.vms: Dict[str, VM] = {}
        # Incremental capacity accounting, maintained by place()/remove()
        # so the mem_used_gb / vcpus_committed properties are O(1) instead
        # of an O(VMs) sum on every placement probe.
        self._mem_used_gb = 0.0
        self._vcpus_committed = 0.0
        # Demand cache: (t, epoch) -> total demand.  The epoch bumps on any
        # change to what demand_cores(t) sums over (VM set, migration tax),
        # so repeated same-instant planning reads hit the cache.
        self._demand_epoch = 0
        self._demand_key: Optional[Tuple[float, int]] = None
        self._demand_value = 0.0
        self._resident_value = 0.0
        #: The sampler's demand lattice (set by
        #: :class:`~repro.telemetry.lattice.DemandLattice`): serves the
        #: resident sum at tick instants while ``_demand_epoch`` is still
        #: the one this host's rows were built at.
        self._lattice: Optional["DemandLattice"] = None
        # Live multiset of resident anti-affinity groups, maintained by
        # place()/remove() so group membership probes are O(1) instead of
        # an O(VMs) scan per candidate host.
        self._aa_groups: Dict[str, int] = {}
        #: Extra cores consumed by in-flight migrations (source+dest tax).
        self._migration_tax_cores = 0.0
        #: Memory held for inbound migrations, counted against mem_free_gb.
        self.mem_reserved_gb = 0.0
        #: Anti-affinity groups of inbound (in-flight) migrations.
        self.groups_reserved: Set[str] = set()
        #: Optional per-host DVFS governor (ondemand-style).
        self.dvfs = dvfs
        self.dvfs_target = dvfs_target
        #: Current relative frequency (1.0 = nominal).
        self.frequency = 1.0
        #: Count of wake attempts that failed (transient or permanent).
        self.wake_failures = 0
        # Membership flags (see the properties below): set when a permanent
        # failure takes the host out of management; while an operator holds
        # the host for service; and while the manager has it earmarked for
        # parking so placement stops assigning new VMs to it.
        self._out_of_service = False
        self._in_maintenance = False
        self._evacuating = False
        if trace is not None:
            trace.emit(HostInit(
                env.now, name, initial_state.value, self.cores, self.mem_gb
            ))

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    @property
    def profile(self) -> ServerPowerProfile:
        return self.machine.profile

    @property
    def state(self) -> PowerState:
        return self.machine.state

    @property
    def is_active(self) -> bool:
        # Flattened machine.is_active (placement probes hit this on every
        # candidate host): ACTIVE state with no transition in flight.
        machine = self.machine
        return machine._state is PowerState.ACTIVE and machine._transition is None

    @property
    def available_for_placement(self) -> bool:
        machine = self.machine
        return (
            machine._state is PowerState.ACTIVE
            and machine._transition is None
            and not self._evacuating
            and not self._in_maintenance
        )

    def _membership_changed(self) -> None:
        """Tell the owning cluster's host index to re-file this host."""
        if self._index_cb is not None:
            self._index_cb(self)

    @property
    def out_of_service(self) -> bool:
        """True when a permanent failure took the host out of management."""
        return self._out_of_service

    @out_of_service.setter
    def out_of_service(self, value: bool) -> None:
        self._out_of_service = value
        self._membership_changed()

    @property
    def in_maintenance(self) -> bool:
        """True while an operator holds the host for service."""
        return self._in_maintenance

    @in_maintenance.setter
    def in_maintenance(self, value: bool) -> None:
        self._in_maintenance = value
        self._membership_changed()

    @property
    def evacuating(self) -> bool:
        """True while the manager has this host earmarked for parking."""
        return self._evacuating

    @evacuating.setter
    def evacuating(self, value: bool) -> None:
        self._evacuating = value
        self._membership_changed()

    @property
    def migration_tax_cores(self) -> float:
        """Extra cores consumed by in-flight migrations (src+dst tax)."""
        return self._migration_tax_cores

    @migration_tax_cores.setter
    def migration_tax_cores(self, value: float) -> None:
        self._migration_tax_cores = value
        self._demand_epoch += 1

    @property
    def mem_used_gb(self) -> float:
        return self._mem_used_gb

    @property
    def mem_free_gb(self) -> float:
        return (
            self.mem_gb * self.mem_overcommit
            - self.mem_used_gb
            - self.mem_reserved_gb
        )

    @property
    def vcpus_committed(self) -> float:
        return self._vcpus_committed

    @property
    def vm_count(self) -> int:
        return len(self.vms)

    def fits(self, vm: VM) -> bool:
        """True if ``vm``'s memory fits and anti-affinity is respected."""
        if vm.mem_gb > self.mem_free_gb + 1e-9:
            return False
        group = vm.anti_affinity_group
        if group is not None and (
            self.hosts_group(group) or group in self.groups_reserved
        ):
            return False
        return True

    def hosts_group(self, group: str) -> bool:
        """True if any resident VM belongs to ``group``."""
        return group in self._aa_groups

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def place(self, vm: VM) -> None:
        """Bind ``vm`` to this host (it must be unplaced and fit)."""
        if not self.is_active:
            raise HostNotActive(
                "cannot place {} on {} in state {}".format(
                    vm.name, self.name, self.state.value
                )
            )
        if vm.host is not None:
            raise RuntimeError(
                "{} is already placed on {}".format(vm.name, vm.host.name)
            )
        if not self.fits(vm):
            group = vm.anti_affinity_group
            if group is not None and (
                self.hosts_group(group) or group in self.groups_reserved
            ):
                reason = "anti-affinity group {!r} already on {}".format(
                    group, self.name
                )
            else:
                reason = "{} GB requested, {} GB free on {}".format(
                    vm.mem_gb, self.mem_free_gb, self.name
                )
            raise InsufficientCapacity(
                "{} does not fit: {}".format(vm.name, reason)
            )
        self.vms[vm.name] = vm
        self._mem_used_gb += vm.mem_gb
        self._vcpus_committed += vm.vcpus
        if vm.anti_affinity_group is not None:
            group = vm.anti_affinity_group
            self._aa_groups[group] = self._aa_groups.get(group, 0) + 1
        self._demand_epoch += 1
        vm.host = self

    def remove(self, vm: VM) -> None:
        """Unbind ``vm`` from this host."""
        if self.vms.pop(vm.name, None) is None:
            raise KeyError("{} is not on {}".format(vm.name, self.name))
        if self.vms:
            self._mem_used_gb -= vm.mem_gb
            self._vcpus_committed -= vm.vcpus
        else:
            # Snap back to exactly zero so float error cannot accumulate
            # across long place/remove (migration) sequences.
            self._mem_used_gb = 0.0
            self._vcpus_committed = 0.0
        if vm.anti_affinity_group is not None:
            count = self._aa_groups[vm.anti_affinity_group] - 1
            if count:
                self._aa_groups[vm.anti_affinity_group] = count
            else:
                del self._aa_groups[vm.anti_affinity_group]
        self._demand_epoch += 1
        vm.host = None

    # ------------------------------------------------------------------
    # Demand & power
    # ------------------------------------------------------------------

    def demand_cores(self, t: float) -> float:  # reprolint: hot
        """Total CPU demand at ``t``: VM demand plus migration tax.

        Memoized per ``(t, epoch)`` — the sampler and the manager's
        planning passes all read the same instant, so only the first call
        per tick walks the VM dict (summation order is unchanged, keeping
        the result bit-identical to the uncached expression).  The
        resident sum (without the tax) is cached alongside for
        :meth:`resident_demand_cores`.
        """
        key = (t, self._demand_epoch)
        if key == self._demand_key:
            return self._demand_value
        lattice = self._lattice
        resident = None if lattice is None else lattice.resident_cores(self, t)
        if resident is None:
            resident = 0.0
            for vm in self.vms.values():
                resident += vm.demand_cores(t)
        self._demand_key = key
        self._resident_value = resident
        self._demand_value = resident + self._migration_tax_cores
        return self._demand_value

    def resident_demand_cores(self, t: float) -> float:
        """Resident VM demand at ``t``, *without* the migration tax.

        Bit-identical to ``sum(vm.demand_cores(t) for vm in
        host.vms.values())`` — the expression the evacuation planner and
        load balancer previously evaluated per candidate host — but
        served from the same per-instant cache as :meth:`demand_cores`.
        """
        if (t, self._demand_epoch) != self._demand_key:
            self.demand_cores(t)
        return self._resident_value

    def power_w(self) -> float:
        return self.machine.power_w()

    def energy_j(self) -> float:
        return self.machine.energy_j()

    # ------------------------------------------------------------------
    # Power-state changes (generators for env.process)
    # ------------------------------------------------------------------

    def park(self, state: PowerState) -> Generator["Event", Any, PowerState]:
        """Transition generator: ACTIVE → parked ``state``.

        The host must be empty — the management layer evacuates first.
        """
        if self.vms:
            raise HostNotActive(
                "refusing to park {} with {} VMs resident".format(
                    self.name, len(self.vms)
                )
            )
        if not state.is_parked:
            raise ValueError("park target must be a parked state")
        return self.machine.transition_to(state)

    def wake(self) -> Generator["Event", Any, PowerState]:
        """Transition generator: parked → ACTIVE.

        With fault injection attached, the attempt may fail: it consumes
        the full resume latency and energy, then leaves the host parked
        (and possibly permanently out of service).  The generator's return
        value is the resulting state, so callers can detect the failure.
        """
        if self.out_of_service:
            raise HostNotActive("{} is out of service".format(self.name))
        fail = (
            self._injector.draw_wake_failure(self.env.now)
            if self._injector
            else False
        )
        if fail:
            self.wake_failures += 1
            if self._injector.draw_permanent(self.env.now):
                return self._failed_wake_permanent()
        return self.machine.transition_to(PowerState.ACTIVE, fail=fail)

    def _failed_wake_permanent(self) -> Generator["Event", Any, PowerState]:
        result = yield self.env.process(
            self.machine.transition_to(PowerState.ACTIVE, fail=True)
        )
        self.out_of_service = True
        return result

    # ------------------------------------------------------------------
    # Repair (operator service after a permanent failure)
    # ------------------------------------------------------------------

    def repair_delay_s(self) -> Optional[float]:
        """Draw the operator repair delay, or None when repair is disabled.

        Each call draws a fresh delay from the injector's dedicated repair
        RNG stream, so delays are deterministic per (seed, host, failure
        ordinal) and independent of the failure draws.
        """
        if self._injector is None:
            return None
        return self._injector.repair_delay_s()

    def repair(self) -> None:
        """Return a permanently failed host to service.

        The host stays in whatever parked state the failed wake left it
        in; it simply becomes eligible for management (waking) again.  The
        cumulative :attr:`wake_failures` count is *not* reset — it is an
        end-of-run reconciliation fact, not retry state.
        """
        if not self.out_of_service:
            raise RuntimeError(
                "{} is not out of service; nothing to repair".format(self.name)
            )
        self.out_of_service = False

    def __repr__(self) -> str:
        return "<Host {} {} vms={} {:.0f}W>".format(
            self.name, self.state.value, len(self.vms), self.power_w()
        )
