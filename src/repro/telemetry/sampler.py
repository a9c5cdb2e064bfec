"""The sampling heartbeat: demand refresh + series collection."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.seeding import stream_rng
from repro.datacenter.cluster import Cluster
from repro.datacenter.vm import Priority
from repro.sim import ResumeSpec
from repro.power.states import PowerState
from repro.telemetry.lattice import DemandLattice
from repro.telemetry.timeseries import SampleFrame
from repro.telemetry.view import Channel, ClusterView


class ClusterSampler:
    """Periodically refreshes demand and records cluster-level series.

    Each epoch (default 60 s) it:

    1. re-evaluates every VM's demand and pushes host utilizations into
       the power machines (this *is* the simulation's workload dynamics);
    2. appends one row to its sample frame, one value per series;
    3. accumulates shortfall (demand not delivered) integrals for the
       performance-violation metrics.
    """

    SERIES = (
        "demand_cores",
        "active_capacity_cores",
        "committed_capacity_cores",
        "power_w",
        "active_hosts",
        "parked_hosts",
        "transitioning_hosts",
        "shortfall_cores",
        "vm_count",
        "shortfall_gold",
        "shortfall_silver",
        "shortfall_bronze",
    )

    #: The classes of the last three series, in their order.
    _CLASSES = (Priority.GOLD, Priority.SILVER, Priority.BRONZE)

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        cluster: Cluster,
        epoch_s: float = 60.0,
        telemetry: Optional[Channel[ClusterView]] = None,
        headroom_ceiling: Optional[float] = None,
        bounded: bool = False,
        seed: int = 0,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        self.env = env
        self.cluster = cluster
        self.epoch_s = epoch_s
        #: Optional telemetry channel to the manager: each tick sends one
        #: :class:`~repro.telemetry.view.ClusterView` through it, lost
        #: with a draw from the ``telemetry:{seed}:{tick}`` stream (see
        #: :mod:`repro.telemetry.view`); None keeps the manager on ground
        #: truth exactly as before.
        self.telemetry = telemetry
        self.seed = seed
        #: Telemetry snapshots the channel lost.
        self.telemetry_dropped = 0
        #: Bounded mode (service runs): the frame keeps O(1) incremental
        #: aggregates instead of every sample, so RAM stays flat over
        #: arbitrary horizons.  The report statistics remain available;
        #: raw sample access does not (stream them via ``attach_sink``).
        self.bounded = bounded
        #: One row per tick, one column per ``SERIES`` name;
        #: ``series[name]`` reads a column.
        self.series = SampleFrame(self.SERIES, bounded=bounded)
        #: Optional per-window streaming sink (service mode); explicitly
        #: not pickled — the runner reattaches it on checkpoint resume.
        self._sink = None
        self.shortfall_core_s = 0.0
        self.demand_core_s = 0.0
        self.class_shortfall_core_s: Dict[Priority, float] = {
            p: 0.0 for p in Priority
        }
        self.class_demand_core_s: Dict[Priority, float] = {p: 0.0 for p in Priority}
        self.samples = 0
        self._process = None
        #: Demand at the upcoming tick instants, refilled every
        #: ``DemandLattice.CHUNK_TICKS`` ticks; the per-tick walk reads
        #: its slots instead of dispatching into per-VM trace objects.
        self.lattice = DemandLattice(cluster, epoch_s)
        #: Manager's balancer destination ceiling, when wired by the
        #: scenario runner: lets the tick walk accumulate the watchdog's
        #: overload / free-headroom sums as it goes, so
        #: ``react_to_shortfall`` at the same instant skips its own
        #: full-inventory scans (see PowerAwareManager.tick_aggregates).
        self._headroom_ceiling = headroom_ceiling
        self._agg_now: Optional[float] = None
        self._agg_overload = 0.0
        self._agg_headroom = 0.0
        # The host inventory is fixed at construction, and so are each
        # host's position, machine, meter, core count, and DVFS model:
        # prebinding them drops four attribute hops per host per tick.
        self._host_rows = [
            (k, h, h.machine, h.machine.meter, h.cores, h.dvfs)
            for k, h in enumerate(cluster.hosts)
        ]

    def start(self) -> "Process":  # noqa: F821
        if self._process is not None:
            raise RuntimeError("sampler already started")
        # ``bind`` re-points ``_process`` at the re-created process on
        # checkpoint restore (the pickled handle is an inert husk).
        self._process = self.env.process(
            self._run(), ckpt=ResumeSpec(self, "_run", bind="_process")
        )
        return self._process

    def sample_once(self) -> float:  # reprolint: hot
        """Take one sample immediately; returns the epoch's shortfall cores.

        This is the simulation's per-instant hot path, so the whole tick
        is one fused walk over the host inventory.  A *settled* host
        (stably ACTIVE, untaxed, no DVFS, lattice rows current, a core of
        slack) copies its rows, which the walk first rebuilds from this
        slot on if a placement or tax change made them stale; an untaxed
        *empty* host that is not stably ACTIVE refreshes its caches;
        every other host takes the general step, which reads each VM's
        demand once and runs the utilization refresh plus per-class
        strict-priority shortfall arithmetic inline.  The short steps run
        the general step's float operations for their case, minus terms
        that are exactly zero.  Class demand comes from the slot's class
        rows, rebuilt from this slot on after admissions and
        retirements; the registry is walked only where the lattice
        refuses.  The accumulation order — hosts in inventory order, VMs
        in per-host dict order, classes GOLD→SILVER→BRONZE, then the
        cluster VM registry for class demand — is fixed, and the reference in
        ``tests/test_telemetry_sampler.py`` sums direct trace reads in
        the same orders to check every series value bit for bit.
        """
        now = self.env.now
        cluster = self.cluster
        lattice = self.lattice
        # ``on``: this tick has a lattice slot, whose rows the walk reads.
        on = lattice.tick(now)
        tags = lattice.host_tags
        # VM -> column of this tick's slot, and the slot row's reader;
        # off the lattice ``cols`` is empty, so no stale slot is read.
        cols = lattice.vm_col if on else {}
        vm_at = lattice.vm_slot().item
        resident_now = lattice.resident_now
        util_now = lattice.util_now
        power_now = lattice.power_now
        shortfall = 0.0
        gold_sf = silver_sf = bronze_sf = 0.0
        ceiling = self._headroom_ceiling
        overload_sum = 0.0
        headroom_sum = 0.0
        power_total = 0.0

        ACTIVE = PowerState.ACTIVE
        for k, host, machine, meter, cores, dvfs in self._host_rows:
            vms = host.vms
            tax = host._migration_tax_cores
            # Inline machine.is_active (a property + method chain):
            active = machine._state is ACTIVE and machine._transition is None
            if active and on and tax == 0.0 and dvfs is None:
                # Settled-host short step.  The host's rows are current
                # while its demand epoch matches theirs; rows a placement
                # or tax change made stale are rebuilt from this slot on
                # (a VM without a row keeps the general step).  A core of
                # slack makes the shortfall, overload and per-class terms
                # zero, and the unit DVFS scale drops out of the wattage
                # (``x * 1.0 == x``).
                epoch = host._demand_epoch
                if tags[k] != epoch:
                    lattice.rebuild_host(k, host)
                if tags[k] == epoch and not resident_now[k] > cores - 1.0:
                    vm_sum = resident_now[k]
                    demand = vm_sum + tax
                    host._demand_key = (now, epoch)
                    host._demand_value = demand
                    host._resident_value = vm_sum
                    if ceiling is not None and not (
                        host._evacuating or host._in_maintenance
                    ):
                        d = cores * ceiling - demand
                        if d > 0.0:
                            headroom_sum += d
                    machine._utilization = util_now[k]
                    machine._dynamic_scale = 1.0
                    idle = machine._idle_w
                    meter.set_power(now, idle + (power_now[k] - idle))
                    power_total += meter._power_w
                    continue
            elif not active and not vms and tax == 0.0:
                # Empty-host short step: no demand, no shortfall, and a
                # machine that is not stably ACTIVE takes no meter write.
                host._demand_key = (now, host._demand_epoch)
                host._demand_value = host._resident_value = 0.0
                if dvfs is not None:
                    host.frequency = dvfs.levels[0]
                if machine._utilization != 0.0 or machine._dynamic_scale != 1.0:
                    machine.set_utilization(0.0)
                power_total += meter._power_w
                continue
            vm_sum = 0.0
            g = sv = b = 0.0
            for vm in vms.values():
                # No memo write on the lattice branch: ``demand_cores``
                # itself reads the lattice, so any later reader at this
                # instant resolves the same value in O(1).
                c = cols.get(vm)
                v = vm.demand_cores(now) if c is None else vm_at(c)
                vm_sum += v
                p = vm.priority
                if p == 0:
                    g += v
                elif p == 1:
                    sv += v
                else:
                    b += v
            demand = vm_sum + tax
            # Serve the same-instant planning reads from the host cache
            # (both the taxed total and the resident sum — lockstep with
            # Host.demand_cores / Host.resident_demand_cores).
            host._demand_key = (now, host._demand_epoch)
            host._demand_value = demand
            host._resident_value = vm_sum
            # DVFS: the ondemand level while stably ACTIVE, else the lowest.
            if dvfs is not None:
                if active:
                    host.frequency = dvfs.level_for(
                        demand / cores, target=host.dvfs_target
                    )
                else:
                    host.frequency = dvfs.levels[0]
                capacity = cores * host.frequency
            else:
                capacity = cores
            # ``d if d > 0.0 else 0.0`` is ``max(0.0, d)`` without the
            # call: identical result (the difference never rounds to
            # ``-0.0``), and adding a zero term to a non-negative
            # accumulator is the identity, so zero terms are skipped.
            d = demand - capacity
            sf = d if d > 0.0 else 0.0
            if ceiling is not None and active:
                # Watchdog pre-aggregation: the same expressions, host
                # order, and zero-start accumulation as the manager's
                # overload / free-headroom scans (active hosts for the
                # former, placement-available hosts for the latter).
                d = demand - cores
                if d > 0.0:
                    overload_sum += d
                if not (host._evacuating or host._in_maintenance):
                    d = cores * ceiling - demand
                    if d > 0.0:
                        headroom_sum += d
            if active:
                # Lockstep inline of PowerMachine.set_utilization for the
                # stably-ACTIVE case (the validations are vacuous here:
                # ``min(demand / cores, 1.0)`` is always in range and the
                # DVFS power scale is positive).  ``_active_power`` is
                # unrolled with the same operation order.
                u = min(demand / cores, 1.0)
                pa = machine._power_at(u)
                dscale = (
                    dvfs.power_scale(host.frequency)
                    if dvfs is not None
                    else 1.0
                )
                machine._utilization = u
                machine._dynamic_scale = dscale
                idle = machine._idle_w
                meter.set_power(now, idle + (pa - idle) * dscale)
            else:
                # ``set_utilization(0.0)`` on a non-active machine only
                # writes ``_utilization``/``_dynamic_scale`` (no meter
                # update), so it is a pure no-op once both already hold
                # their reset values — the common case for parked hosts.
                if machine._utilization != 0.0 or machine._dynamic_scale != 1.0:
                    machine.set_utilization(0.0)
                if vms:
                    sf = demand
            # Fleet power accumulated in the same host (== meter) order
            # as ``Cluster.power_w``'s scan, after this host's meter
            # write — the identical IEEE-754 sum without the extra walk.
            power_total += meter._power_w
            if sf > 0.0:
                shortfall += sf
            # Strict-priority delivery: tax first, then GOLD, SILVER, BRONZE.
            if vms:
                if not active:
                    gold_sf += g
                    silver_sf += sv
                    bronze_sf += b
                else:
                    if dvfs is not None:
                        capacity_left = max(0.0, cores * host.frequency - tax)
                    else:
                        capacity_left = max(0.0, cores - tax)
                    if vm_sum > capacity_left - 1.0:
                        # The slack guard makes skipping exact: per-class
                        # sums differ from ``vm_sum`` and the running
                        # ``capacity_left`` from true remainders only by
                        # accumulated rounding (≪ 1 core), so with a full
                        # core of headroom every ``min`` resolves to the
                        # class demand and each contribution is exactly
                        # ``d - d == 0.0``.  Anything closer to the edge
                        # runs the arithmetic.
                        delivered = min(g, capacity_left)
                        capacity_left -= delivered
                        gold_sf += g - delivered
                        delivered = min(sv, capacity_left)
                        capacity_left -= delivered
                        silver_sf += sv - delivered
                        bronze_sf += b - min(b, capacity_left)
        if on and (lattice.class_tag == cluster._vm_epoch or lattice.rebuild_classes()):
            # Registry unchanged since the class rows were built, or they
            # were rebuilt from this slot on: the class demand totals are
            # the slot's precomputed values.
            gold_d, silver_d, bronze_d, registry_total = lattice.classes_now
        else:
            gold_d = silver_d = bronze_d = 0.0
            registry_total = 0.0
            for vm in cluster.iter_vms():
                # The VM's row, as ``VM.demand_cores`` would read it, or
                # the scalar read for a VM the fill left off.
                c = cols.get(vm)
                v = vm.demand_cores(now) if c is None else vm_at(c)
                registry_total += v
                p = vm.priority
                if p == 0:
                    gold_d += v
                elif p == 1:
                    silver_d += v
                else:
                    bronze_d += v
        demand = gold_d + silver_d + bronze_d
        # ``registry_total`` accumulates in registry order starting from
        # zero — exactly ``Cluster.demand_cores``'s own sum — so the
        # cluster-level cache can be pre-seeded here.  Manager reads at
        # coincident instants (watchdog, consolidation) then skip their
        # own registry walk entirely.
        cluster._demand_key = (now, cluster._vm_epoch)
        cluster._demand_value = registry_total
        if ceiling is not None:
            self._agg_now = now
            self._agg_overload = overload_sum
            self._agg_headroom = headroom_sum
        committed = cluster.committed_capacity_cores()
        n_active = cluster.n_active_hosts()
        n_parked = cluster.n_parked_hosts()
        vm_count = cluster.vm_count
        # One row in ``SERIES`` order.
        self.series.append(
            now,
            (
                demand,
                cluster.active_capacity_cores(),
                committed,
                power_total,
                n_active,
                n_parked,
                cluster.n_transitioning_hosts(),
                shortfall,
                vm_count,
                gold_sf,
                silver_sf,
                bronze_sf,
            ),
        )
        epoch_s = self.epoch_s
        class_sf = (gold_sf, silver_sf, bronze_sf)
        class_d = (gold_d, silver_d, bronze_d)
        for priority, sf_value, d_value in zip(self._CLASSES, class_sf, class_d):
            self.class_shortfall_core_s[priority] += sf_value * epoch_s
            self.class_demand_core_s[priority] += d_value * epoch_s
        self.shortfall_core_s += shortfall * epoch_s
        self.demand_core_s += demand * epoch_s
        self.samples += 1
        sink = self._sink
        if sink is not None:
            sink.emit_window(
                now,
                {
                    "demand_cores": demand,
                    "power_w": power_total,
                    "active_hosts": n_active,
                    "parked_hosts": n_parked,
                    "committed_capacity_cores": committed,
                    "shortfall_cores": shortfall,
                    "vm_count": vm_count,
                },
            )
        telemetry = self.telemetry
        if telemetry is not None:
            view = ClusterView(
                taken_at=now,
                demand_cores=demand,
                committed_capacity_cores=committed,
                active_hosts=n_active,
                vm_count=vm_count,
            )
            rng = None
            if telemetry.dropout_rate > 0.0:
                # Tick index: this sample's position in the run.
                rng = stream_rng("telemetry", self.seed, self.samples - 1)
            self.telemetry_dropped += telemetry.send([view], now, rng)
        return shortfall

    def _run(self, resume_at: Optional[float] = None):
        if resume_at is not None:
            # Checkpoint restore: the interrupted loop had already sampled
            # and was waiting — wait out the remainder, then resume the
            # sample-first cadence.
            yield self.env.shared_timeout_at(resume_at)
        while True:
            self.sample_once()
            # Coalesced: the manager watchdog ticks at the same instants
            # (both periods divide each other in the default configs), so
            # the two loops share one heap entry.  Safe because
            # ``sample_once`` spawns no processes a later same-instant
            # waiter would need to observe.
            yield self.env.shared_timeout(self.epoch_s)

    # ------------------------------------------------------------------
    # Streaming / checkpoint support
    # ------------------------------------------------------------------

    def attach_sink(self, sink) -> None:
        """Attach (or re-attach, after resume) a streaming metrics sink."""
        self._sink = sink

    def __getstate__(self) -> dict:
        """Checkpoint without the sink: it wraps an open file handle.

        The runner re-attaches a resume-mode sink after restore (see
        :class:`repro.telemetry.stream.StreamingMetricsSink`).
        """
        state = self.__dict__.copy()
        state["_sink"] = None
        return state

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def violation_fraction(self) -> float:
        """Share of demanded core-seconds that were not delivered."""
        if self.demand_core_s <= 0:
            return 0.0
        return self.shortfall_core_s / self.demand_core_s

    @property
    def violation_time_fraction(self) -> float:
        """Share of time with any undelivered demand."""
        return self.series["shortfall_cores"].fraction_above(1e-9)

    def violation_fraction_by_class(self) -> Dict[Priority, float]:
        """Per-class share of demanded core-seconds not delivered."""
        result = {}
        for priority in Priority:
            demanded = self.class_demand_core_s[priority]
            if demanded <= 0:
                result[priority] = 0.0
            else:
                result[priority] = (
                    self.class_shortfall_core_s[priority] / demanded
                )
        return result

    def energy_kwh(self) -> float:
        return self.cluster.energy_j() / 3.6e6
