"""Virtual machine model."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Protocol

if TYPE_CHECKING:
    from repro.datacenter.host import Host
    from repro.telemetry.lattice import DemandLattice


class DemandTrace(Protocol):
    """Anything with ``at(t) -> float``: a demand fraction over time.

    The concrete traces live in :mod:`repro.workload.traces`; this
    protocol keeps the datacenter layer independent of the workload
    layer.
    """

    def at(self, t: float) -> float: ...


class Priority(enum.IntEnum):
    """Service class; lower value = higher priority.

    When a host is overloaded, CPU is delivered strictly by class: GOLD
    first, then SILVER, then BRONZE — so capacity shortfalls concentrate
    on the lowest class, mirroring enterprise resource-pool shares.
    """

    GOLD = 0
    SILVER = 1
    BRONZE = 2


class VM:
    """A virtual machine with a time-varying CPU demand.

    Attributes:
        name: unique identifier.
        vcpus: configured virtual CPUs (the demand ceiling, in cores).
        mem_gb: configured memory; the live-migration model transfers it.
        trace: object with ``at(t) -> float`` in [0, 1] giving the fraction
            of ``vcpus`` demanded at simulated time ``t``.
        priority: service class (default BRONZE — lowest).
    """

    #: Derived/runtime state the scenario cache must not hash: the demand
    #: memo is a pure cache, and ``host`` binding is an execution outcome.
    __cache_ignore__ = (
        "_demand_at_t",
        "_demand_value",
        "_lattice",
        "host",
        "migrating",
    )

    def __init__(
        self,
        name: str,
        vcpus: float,
        mem_gb: float,
        trace: DemandTrace,
        priority: Priority = Priority.BRONZE,
    ) -> None:
        if vcpus <= 0:
            raise ValueError("vcpus must be positive")
        if mem_gb <= 0:
            raise ValueError("mem_gb must be positive")
        self.name = name
        self.vcpus = float(vcpus)
        self.mem_gb = float(mem_gb)
        self.trace = trace
        self.priority = Priority(priority)
        #: HA constraint: VMs sharing a group must not share a host.
        self.anti_affinity_group: Optional[str] = None
        #: Host currently running the VM (maintained by Host.place/remove).
        self.host: Optional["Host"] = None
        #: True while a live migration of this VM is in flight.
        self.migrating = False
        #: Dirty-page rate in GB/s, used by the pre-copy migration model.
        self.dirty_rate_gbps = 0.05
        #: Cumulative count of completed migrations of this VM.
        self.migration_count = 0
        # Demand memo: traces are deterministic in t, and within one epoch
        # the sampler, watchdog and consolidation loops all ask for demand
        # at the same instant — evaluate the trace once per distinct t.
        self._demand_at_t: Optional[float] = None
        self._demand_value = 0.0
        #: The sampler's demand lattice, once it holds a row for this VM
        #: (set by :class:`~repro.telemetry.lattice.DemandLattice`).
        self._lattice: Optional["DemandLattice"] = None

    def demand_cores(self, t: float) -> float:
        """CPU demand at time ``t``, in cores (clamped to [0, vcpus])."""
        if t == self._demand_at_t:
            return self._demand_value
        lattice = self._lattice
        value = None if lattice is None else lattice.vm_cores(self, t)
        if value is None:
            fraction = self.trace.at(t)
            if fraction < 0:
                raise ValueError(
                    "trace for {} returned negative demand {}".format(self.name, fraction)
                )
            value = min(fraction, 1.0) * self.vcpus
        self._demand_at_t = t
        self._demand_value = value
        return value

    @property
    def placed(self) -> bool:
        return self.host is not None

    def __repr__(self) -> str:
        where = self.host.name if self.host else "unplaced"
        return "<VM {} {}vcpu {}GB on {}>".format(
            self.name, self.vcpus, self.mem_gb, where
        )
