"""The planning view: the per-host arrays one consolidation round reads."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.datacenter.cluster import Cluster, host_constants
from repro.datacenter.host import Host


class PlanningView:
    """Per-host planning values at one instant, entry ``k`` for ``hosts[k]``.

    A consolidation round builds one when it first needs it, and every
    per-host scan of the round reads it: the park-candidate order, the
    evacuation budgets (:class:`~repro.placement.evacuation.TargetView`),
    best fit and the balancer's source and destination scans.  It holds
    ``resident`` (resident VM demand), ``cores``, ``mem_capacity``
    (``mem_gb * mem_overcommit``) and the ``active``, ``placeable`` and
    ``evacuating`` masks; a view of the whole cluster shares ``cores`` and
    ``mem_capacity`` with the cluster, as neither changes.  :meth:`load` (the planning
    load, resident demand plus the migration tax), :meth:`reserved`
    (memory held for an inbound migration) and :meth:`mem_free` are read
    on first use, as nothing they read changes while a round plans.

    Each value is the scalar expression it stands for, with the same IEEE
    operations in the same order, so planning on the view changes no
    decision.  The view lives for one round; a host that starts
    evacuating during it is marked with :meth:`mark_evacuating`.
    """

    def __init__(
        self,
        hosts: List[Host],
        now: float,
        resident: np.ndarray,
        flags: np.ndarray,
        cores: np.ndarray,
        mem_capacity: np.ndarray,
    ) -> None:
        self.hosts = hosts
        self.now = now
        self.resident = resident
        self.cores = cores
        self.mem_capacity = mem_capacity
        self.active, self.placeable, self.evacuating = flags
        self._load: Optional[np.ndarray] = None
        self._mem_reserved: Optional[np.ndarray] = None
        self._mem_free: Optional[np.ndarray] = None
        self._positions: Optional[Dict[Host, int]] = None

    @classmethod
    def of_cluster(cls, cluster: Cluster, now: float) -> "PlanningView":
        """The whole cluster at ``now``, without walking every host's VMs.

        Resident demand is the lattice slot's row.  Only active hosts
        whose rows are stale, or every host when ``now`` has no slot,
        take the scalar ``Host.resident_demand_cores`` read; a host that
        is not active holds no VM (placement needs an active host, parking
        an empty one), so its stale entry is that read's ``0.0``.  The
        masks come from the cluster's host index, cores and memory
        capacity from its constants.
        """
        hosts = cluster.hosts
        flags = cluster.host_masks()
        lattice = cluster._lattice
        read = None if lattice is None else lattice.resident_row(now)
        if read is None:
            resident = np.array([h.resident_demand_cores(now) for h in hosts], dtype=float)
        else:
            resident, stale = read
            if stale:
                active = flags[0].tolist()
                for k in stale:
                    resident[k] = hosts[k].resident_demand_cores(now) if active[k] else 0.0
        return cls(hosts, now, resident, flags, *cluster.planning_constants())

    @classmethod
    def of_hosts(cls, hosts: Iterable[Host], now: float) -> "PlanningView":
        """``hosts``, in the given order, each read once: a one-shot view."""
        hosts = list(hosts)
        flags = np.array(
            [[h.is_active for h in hosts],
             [h.available_for_placement for h in hosts],
             [h.evacuating for h in hosts]],
            dtype=bool,
        ).reshape(3, len(hosts))
        resident = np.array([h.resident_demand_cores(now) for h in hosts], dtype=float)
        return cls(hosts, now, resident, flags, *host_constants(hosts))

    def load(self) -> np.ndarray:
        """Planning load: ``Host.demand_cores``, resident demand plus the tax."""
        if self._load is None:
            tax = np.array([h._migration_tax_cores for h in self.hosts], dtype=float)
            self._load = self.resident + tax
        return self._load

    def mem_reserved(self) -> np.ndarray:
        """Memory held for inbound migrations."""
        if self._mem_reserved is None:
            self._mem_reserved = np.array([h.mem_reserved_gb for h in self.hosts], dtype=float)
        return self._mem_reserved

    def reserved(self) -> np.ndarray:
        """Hosts holding memory for an inbound migration."""
        return ~(self.mem_reserved() <= 0.0)

    def mem_free(self) -> np.ndarray:
        """``Host.mem_free_gb``: capacity times overcommit, less used and reserved."""
        if self._mem_free is None:
            used = np.array([h._mem_used_gb for h in self.hosts], dtype=float)
            self._mem_free = self.mem_capacity - used - self.mem_reserved()
        return self._mem_free

    def position(self, host: Host) -> Optional[int]:
        """``host``'s entry, or None when the view does not hold it."""
        if self._positions is None:
            self._positions = dict(zip(self.hosts, range(len(self.hosts))))
        return self._positions.get(host)

    def mark_evacuating(self, host: Host) -> None:
        """``host`` started evacuating: it leaves the placeable set."""
        k = self.position(host)
        if k is not None:
            self.evacuating[k] = True
            self.placeable[k] = False
