"""The global arbiter: placement, sizing, park/wake arbitration.

This is the management plane's *global* half — the decision loops that
need a cluster-wide view.  Two cooperating loops drive the cluster:

* the **consolidation loop** (every ``period_s``): predicts demand, sizes
  the active-host set with headroom, evacuates-and-parks surplus hosts
  (after a hysteresis delay), wakes hosts ahead of predicted growth, and
  runs the DRM load balancer;
* the **watchdog loop** (every ``watchdog_period_s``): reacts instantly to
  capacity shortfall — first by cancelling in-flight evacuations (free
  capacity), then by waking parked hosts — and drains the pending
  admission queue.

The arbiter never touches host power state directly: every wake and park
goes through the single-owner :class:`~repro.core.plane.actuator.WakeArbiter`,
and the freeze decision lives in the
:class:`~repro.core.plane.governor.SafeModeGovernor`.  Observation goes
through the :class:`~repro.core.plane.observer.ClusterObserver`: each
round plans on its picture and parks only the hosts it lets through, on
both plane architectures — the neat plane differs only in the
:class:`~repro.core.plane.observer.LocalDetectors` source it is given.

With ``enable_power_mgmt=False`` only admission and balancing remain,
which is exactly the base-DRM comparison point of the paper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.sim.environment import Environment
    from repro.sim.events import Event
    from repro.sim.process import Process
    from repro.telemetry.sampler import ClusterSampler
    from repro.telemetry.trace import TraceBuffer
    from repro.telemetry.view import Channel, ClusterView

from repro.core.config import ManagerConfig
from repro.core.plane.actuator import WakeArbiter
from repro.core.plane.governor import SafeModeGovernor
from repro.core.plane.log import ManagementLog
from repro.core.plane.observer import ClusterObserver, LocalDetectors
from repro.core.predictor import make_predictor
from repro.datacenter.cluster import Cluster
from repro.datacenter.host import Host
from repro.datacenter.recovery import WakeScoreboard
from repro.datacenter.vm import VM
from repro.fold import left_sum
from repro.migration.engine import MigrationEngine
from repro.placement.balancer import LoadBalancer
from repro.placement.evacuation import plan_evacuation
from repro.placement.planning import PlanningView
from repro.power.states import PowerState
from repro.sim import ResumeSpec
from repro.trace_events import (
    AdmissionEvent,
    Escalation,
    EvacuationEnd,
    ManagerDecision,
    MigrationRetry,
    VmRetired,
    WatchdogWake,
)

#: First wait before retrying a failed evacuation migration, in seconds;
#: it doubles per retry up to ``ManagerConfig.migration_backoff_max_s``.
MIGRATION_BACKOFF_BASE_S = 30.0


class _EvacuationTask:
    """Book-keeping for one evacuate-then-park operation."""

    def __init__(self, host: Host, plan: List[Tuple[VM, Host]]) -> None:
        self.host = host
        self.plan = plan
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class PowerAwareManager:
    """End-to-end controller binding prediction, placement and power."""

    def __init__(
        self,
        env: "Environment",
        cluster: Cluster,
        engine: MigrationEngine,
        config: Optional[ManagerConfig] = None,
        trace: Optional["TraceBuffer"] = None,
        telemetry: Optional["Channel[ClusterView]"] = None,
        detectors: Optional[LocalDetectors] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.engine = engine
        self.config = config or ManagerConfig()
        self.predictor = make_predictor(self.config.predictor)
        self.balancer = LoadBalancer(self.config.balance)
        #: The one action record: counters, plus the trace when traced.
        self.log = ManagementLog(trace=trace)
        self._pending: List[Tuple[VM, float]] = []
        self._evacs: Dict[str, _EvacuationTask] = {}
        self._surplus_rounds = 0
        self._started = False
        cfg = self.config
        #: Per-host wake-failure history driving retry backoff and
        #: blacklisting (see :mod:`repro.datacenter.recovery`).
        self.scoreboard = WakeScoreboard(
            backoff_base_s=cfg.wake_backoff_base_s,
            blacklist_after_failures=cfg.blacklist_after_failures,
            blacklist_hold_s=cfg.blacklist_hold_s,
        )
        #: The plane's eyes: one consistent (possibly stale) picture, from
        #: the telemetry channel (None reads ground truth directly) and,
        #: on the neat plane, the local detectors' reports.
        self.observer = ClusterObserver(cluster, engine, telemetry, detectors)
        #: Degradation governor owning the consolidation freeze.
        self.governor = SafeModeGovernor(self.config, self.log, self.observer)
        #: Single-owner power actuator: every wake/park goes through it,
        #: and it rejects overlapping wakes structurally.
        self.arbiter = WakeArbiter(
            env, self.log, self.scoreboard, on_settled=self._drain_pending
        )
        #: Consecutive watchdog ticks with an unresolved shortfall
        #: (escalation counter).
        self._shortfall_ticks = 0
        #: Memoized power-cap capacity: the inputs (cap, min-active floor,
        #: host inventory) are fixed per run, so the sort in
        #: :meth:`_cap_capacity_cores` runs once instead of per tick.
        self._cap_cores_key: Optional[Tuple[float, int]] = None
        self._cap_cores_value = 0.0
        #: Optional sampler whose tick walk pre-aggregates the watchdog's
        #: overload / free-headroom sums (wired by the scenario runner).
        #: The shared-event ordering guarantees the sampler's callback
        #: runs immediately before the watchdog's at coincident instants,
        #: with no state change in between, so the sums are exactly what
        #: the inventory scans would recompute.
        self.tick_aggregates: Optional["ClusterSampler"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch both control loops."""
        if self._started:
            raise RuntimeError("manager already started")
        self._started = True
        self.env.process(
            self._consolidation_loop(),
            ckpt=ResumeSpec(self, "_consolidation_loop"),
        )
        self.env.process(
            self._watchdog_loop(), ckpt=ResumeSpec(self, "_watchdog_loop")
        )

    def _consolidation_loop(
        self, resume_at: Optional[float] = None
    ) -> Generator["Event", Any, None]:
        # Deliberately NOT coalesced: evaluate() spawns wake/evacuation
        # processes whose urgent start events must run before any
        # same-instant sampler/watchdog tick observes the cluster — a
        # shared event would run those later waiters in the same step,
        # before the spawned processes begin (e.g. the watchdog would
        # see a host still parked and wake it a second time).
        wait = (
            self.env.timeout_at(resume_at)
            if resume_at is not None
            else self.env.timeout(self.config.period_s)
        )
        while True:
            yield wait
            self.evaluate()
            wait = self.env.timeout(self.config.period_s)

    def _watchdog_loop(
        self, resume_at: Optional[float] = None
    ) -> Generator["Event", Any, None]:
        wait = (
            self.env.shared_timeout_at(resume_at)
            if resume_at is not None
            else self.env.shared_timeout(self.config.watchdog_period_s)
        )
        while True:
            yield wait
            self.react_to_shortfall()
            self._drain_pending()
            wait = self.env.shared_timeout(self.config.watchdog_period_s)

    # ------------------------------------------------------------------
    # Admission (used directly and by the churn generator)
    # ------------------------------------------------------------------

    def admit(self, vm: VM) -> bool:
        """Place a new VM, or queue it behind a wake if capacity is parked.

        Returns False only when the request cannot be satisfied even by
        waking every parked host (or when power management is off and no
        active host fits).
        """
        host = self._pick_host_for(vm)
        if host is not None:
            self.cluster.add_vm(vm, host)
            self.log.emit(AdmissionEvent(self.env.now, "admit", vm.name, host.name))
            return True
        if not self.config.enable_power_mgmt or not self._capacity_in_reserve():
            self.log.emit(AdmissionEvent(self.env.now, "admit-rejected", vm.name))
            return False
        self._pending.append((vm, self.env.now))
        self.log.emit(AdmissionEvent(self.env.now, "admit-queued", vm.name))
        self._request_capacity(vm.vcpus)
        return True

    def retire(self, vm: VM) -> None:
        """Remove a departing VM (placed, still pending, or already gone).

        A VM can legitimately be unknown here: a queued admission that hit
        ``admission_timeout_s`` was dropped from the pending list, but its
        churn-generated departure still fires later.  That must not crash
        the simulation — count it and return.
        """
        for i, (pending_vm, _) in enumerate(self._pending):
            if pending_vm is vm:
                del self._pending[i]
                self.log.emit(VmRetired(self.env.now, vm.name))
                return
        if not self.cluster.has_vm(vm.name):
            self.log.retires_unknown += 1
            return
        host_name = vm.host.name if vm.host is not None else ""
        self.cluster.remove_vm(vm)
        self.log.emit(VmRetired(self.env.now, vm.name, host_name))

    def _pick_host_for(self, vm: VM) -> Optional[Host]:
        """Best-fit host for a new VM under the CPU target + memory."""
        demand = self._admission_demand(vm)
        best: Optional[Host] = None
        best_slack: Optional[float] = None
        for host in self.cluster.placeable_hosts():
            if not host.fits(vm):
                continue
            budget = host.cores * self.config.cpu_target - host.demand_cores(self.env.now)
            slack = budget - demand
            if slack < 0:
                continue
            if best_slack is None or slack < best_slack:
                best, best_slack = host, slack
        return best

    def _admission_demand(self, vm: VM) -> float:
        """Planning demand for a not-yet-observed VM."""
        return max(vm.demand_cores(self.env.now), 0.25 * vm.vcpus)

    def _capacity_in_reserve(self) -> bool:
        return bool(self.cluster.parked_hosts()) or bool(self._evacs) or bool(
            self.cluster.waking_hosts()
        )

    def _drain_pending(self) -> None:
        still_waiting: List[Tuple[VM, float]] = []
        timeout = self.config.admission_timeout_s
        for vm, queued_at in self._pending:
            if timeout is not None and self.env.now - queued_at > timeout:
                self.log.emit(
                    AdmissionEvent(
                        self.env.now, "admit-timeout", vm.name,
                        wait_s=self.env.now - queued_at,
                    )
                )
                continue
            host = self._pick_host_for(vm)
            if host is None:
                still_waiting.append((vm, queued_at))
                continue
            self.cluster.add_vm(vm, host)
            self.log.emit(
                AdmissionEvent(
                    self.env.now, "admit-placed", vm.name,
                    host.name, self.env.now - queued_at,
                )
            )
        self._pending = still_waiting
        if self._pending:
            self._request_capacity(left_sum(vm.vcpus for vm, _ in self._pending))

    # ------------------------------------------------------------------
    # The consolidation evaluation
    # ------------------------------------------------------------------

    def evaluate(self) -> None:  # reprolint: hot
        """One consolidation round (public for unit tests)."""
        now = self.env.now
        observed, telemetry_age = self.observer.plan(now, self.log)
        demand = observed + left_sum(
            self._admission_demand(vm) for vm, _ in self._pending
        )
        self.governor.update(now, telemetry_age)
        self.predictor.observe(now, demand)
        predicted = max(self.predictor.predict(), demand)
        needed_cores = predicted * (1.0 + self.config.headroom) / self.config.cpu_target
        cap_cores = self._cap_capacity_cores()
        needed_cores = min(needed_cores, cap_cores)
        committed = (
            self.cluster.committed_capacity_cores()
            - self.cluster.evacuating_cores()
        )

        # The round's planning view, built when the round first needs it.
        view: Optional[PlanningView] = None
        if self.config.enable_power_mgmt:
            min_host_cores = self.cluster.min_host_cores()
            if self.governor.active:
                # Safe mode freezes every shrink path (even cap-forced): a
                # plane that cannot migrate reliably — or cannot see the
                # cluster — must not strand more VMs mid-evacuation.
                # Growing stays allowed; waking hosts needs no migrations.
                self._surplus_rounds = 0
                if committed < needed_cores:
                    self._grow(needed_cores - committed, reactive=False)
            elif committed > cap_cores + min_host_cores - 1e-9:
                # Power-budget violation beats hysteresis: shed capacity
                # now, even if demand would prefer to keep it — remaining
                # hosts may run overloaded (booked as violations).
                view = self._planning_view()
                self._shrink(view, committed - cap_cores, evac_cpu_target=1.0)
            elif committed < needed_cores:
                self._surplus_rounds = 0
                self._grow(needed_cores - committed, reactive=False)
            else:
                surplus = committed - needed_cores
                if surplus >= min_host_cores:
                    self._surplus_rounds += 1
                    if self._surplus_rounds > self.config.park_delay_rounds:
                        view = self._planning_view()
                        self._shrink(view, surplus)
                else:
                    self._surplus_rounds = 0

        if self.config.enable_balancing:
            self._balance(view if view is not None else self._planning_view())

    @property
    def safe_mode(self) -> bool:
        """True while the degradation governor has consolidation frozen."""
        return self.governor.active

    def _planning_view(self) -> PlanningView:
        """The cluster's planning view now (see :class:`PlanningView`)."""
        return PlanningView.of_cluster(self.cluster, self.env.now)

    def _balance(self, view: PlanningView) -> None:
        now = self.env.now
        for move in self.balancer.moves(view):
            if move.vm.migrating or move.vm.host is not move.src:
                continue
            if not move.dst.fits(move.vm):
                continue
            self.log.emit(
                ManagerDecision(
                    now, "balance", move.src.name,
                    "{}->{}".format(move.vm.name, move.dst.name),
                )
            )
            self.engine.migrate(move.vm, move.dst)

    # ------------------------------------------------------------------
    # Growing capacity (wakes)
    # ------------------------------------------------------------------

    def react_to_shortfall(self) -> None:  # reprolint: hot
        """Watchdog action: wake immediately on capacity shortfall.

        Two triggers, both checked every watchdog tick:

        * **aggregate** — total demand above the committed capacity's
          utilization target; and
        * **host-level** — some host is overloaded (demand beyond its
          cores) and the balancer has nowhere under its ceiling to move
          load to; waking one host gives it a drain target.

        A shortfall that persists across ``escalation_after_ticks``
        consecutive ticks (wakes failing, backoff holding hosts back)
        escalates: ``escalation_boost_hosts`` extra hosts are woken
        beyond the computed need.

        The watchdog runs identically in both plane modes: it *is* the
        local reactive path, planning on live per-host state.
        """
        if not self.config.enable_power_mgmt:
            return
        now = self.env.now
        # The aggregate trigger plans on the telemetry view (possibly
        # stale); the host-overload walk below stays on live per-host
        # state — it *is* the reconciliation path that catches what a
        # stale aggregate hides.
        demand, _ = self.observer.observe(now)
        committed = self.cluster.committed_capacity_cores()
        # Evacuating hosts still serve load until parked; but their exit is
        # imminent, so treat them as lost capacity unless we cancel.
        committed -= self.cluster.evacuating_cores()
        cap_cores = self._cap_capacity_cores()
        if committed >= cap_cores - 1e-9:
            # Power-budget-bound: growing (or cancelling a cap-forced
            # evacuation) is not allowed; shortfall is the price of the cap.
            self._shortfall_ticks = 0
            return
        trigger: Optional[str] = None
        shortfall = 0.0
        if demand > committed * self.config.cpu_target:
            trigger = "aggregate"
            shortfall = min(
                demand / self.config.cpu_target - committed,
                cap_cores - committed,
            )
        else:
            agg = self.tick_aggregates
            if agg is not None and agg._agg_now == now:
                overload = agg._agg_overload
                headroom_free = agg._agg_headroom
            else:
                overload = left_sum(
                    max(0.0, h.demand_cores(now) - h.cores)
                    for h in self.cluster.active_hosts()
                )
                headroom_free = left_sum(
                    max(
                        0.0,
                        h.cores * self.config.balance.dst_ceiling
                        - h.demand_cores(now),
                    )
                    for h in self.cluster.placeable_hosts()
                )
            if overload > 0.25 and overload > headroom_free:
                trigger = "host-overload"
                shortfall = min(overload, cap_cores - committed)
        if trigger is None:
            self._shortfall_ticks = 0
            return
        self._shortfall_ticks += 1
        # The shortfall travels as a structured payload, so the trace
        # checker can assert every reactive wake was justified.
        self.log.emit(
            WatchdogWake(
                now, trigger,
                shortfall_cores=shortfall,
                demand_cores=demand,
                committed_cores=committed,
                # -1 encodes "uncapped" (the cap itself is +inf).
                cap_cores=cap_cores if math.isfinite(cap_cores) else -1.0,
            )
        )
        extra_hosts = 0
        after = self.config.escalation_after_ticks
        if after is not None and self._shortfall_ticks >= after:
            extra_hosts = self.config.escalation_boost_hosts
            self.log.emit(
                Escalation(
                    now,
                    ticks=self._shortfall_ticks,
                    extra_hosts=extra_hosts,
                    shortfall_cores=shortfall,
                )
            )
            self._shortfall_ticks = 0
        self._grow(shortfall, reactive=True, extra_hosts=extra_hosts)
        if trigger == "host-overload":
            # Give the balancer an immediate chance to use new capacity
            # once it wakes; meanwhile spread what we can.
            self._balance(self._planning_view())

    def _grow(
        self, cores_short: float, reactive: bool, extra_hosts: int = 0
    ) -> None:
        # 1) Cancelling an in-flight evacuation is free capacity.
        for task in self._evacs.values():
            if cores_short <= 0:
                return
            if not task.cancelled:
                task.cancel()
                cores_short -= task.host.cores
                self.log.emit(
                    ManagerDecision(self.env.now, "evac-cancel", task.host.name)
                )
        if cores_short <= 0 and extra_hosts <= 0:
            return
        # 2) Wake parked hosts, fastest exit first; among equals, prefer
        # the most efficient machine (lowest idle draw) — it will be
        # active for a while.  Hosts in retry backoff or blacklisted after
        # repeated wake failures are skipped entirely, and hosts with a
        # failure history sort behind clean ones so the manager prefers a
        # *different* parked host over banging on a flaky one.
        now = self.env.now
        parked = sorted(
            (
                h
                for h in self.cluster.parked_hosts()
                if self.scoreboard.eligible(h.name, now)
            ),
            key=lambda h: (
                self.scoreboard.failures(h.name),
                h.profile.transition(h.state, PowerState.ACTIVE).latency_s,
                h.profile.idle_w,
            ),
        )
        if not parked:
            return
        mean_cores = left_sum(h.cores for h in parked) / len(parked)
        count = max(int(math.ceil(cores_short / mean_cores)), 0)
        count += self.config.wake_boost_hosts + extra_hosts
        for host in parked[:count]:
            if not self._cap_allows_wake(host):
                self.log.emit(ManagerDecision(self.env.now, "cap-defer", host.name))
                continue
            # The actuator owns everything from here: retry numbering,
            # wake bookkeeping, and — crucially — rejection of a request
            # for a host whose previous wake is still in flight.
            self.arbiter.request_wake(
                host, detail="reactive" if reactive else "predictive"
            )

    def _cap_capacity_cores(self) -> float:
        """CPU capacity the power budget allows to be active at once.

        Sized so that the allowed host count at full peak draw stays under
        the cap (never below the min-active floor).
        """
        cap = self.config.power_cap_w
        if cap is None:
            return float("inf")
        key = (cap, self.config.min_active_hosts)
        if key == self._cap_cores_key:
            return self._cap_cores_value
        per_host_peak = self.cluster.max_peak_w()
        max_hosts = max(int(cap // per_host_peak), self.config.min_active_hosts)
        largest_first = self.cluster.host_cores_desc()
        value = left_sum(largest_first[:max_hosts])
        self._cap_cores_key = key
        self._cap_cores_value = value
        return value

    def _cap_allows_wake(self, host: Host) -> bool:
        """Would waking ``host`` keep projected power under the cap?

        Projection is conservative: current draw plus the *peak* draw of
        every host already waking, of every wake dispatched whose
        transition has not begun (earlier in this pass, or in an earlier
        pass at this instant), and of the candidate.
        """
        cap = self.config.power_cap_w
        if cap is None:
            return True
        projected = (
            self.cluster.power_w()
            + left_sum(h.profile.peak_w for h in self.cluster.waking_hosts())
            + left_sum(h.profile.peak_w for h in self.arbiter.unstarted_wakes())
            + host.profile.peak_w
        )
        return projected <= cap

    # ------------------------------------------------------------------
    # Shrinking capacity (evacuate + park)
    # ------------------------------------------------------------------

    def _park_candidates(self, view: PlanningView) -> List[Host]:
        """Hosts the shrink path may evacuate-and-park this round, in order.

        The active hosts that are neither evacuating nor holding memory
        for an inbound migration, ordered by ``ManagerConfig.park_preference``:

        * ``load``: strictly emptiest-first (cheapest evacuation), a
          stable sort of the planning load;
        * ``efficiency``: load bucketed to 10 % of capacity (Python
          ``round``); within a bucket the host with the highest idle draw
          parks first, so mixed-generation clusters shed their least
          efficient machines, then the lighter one.

        Ties keep host order.  The observer then filters them: on a
        degraded neat round (global view assembled from stale reports)
        only hosts whose own detector reported underload are eligible, so
        the arbiter never parks a host it has no fresh evidence about.
        """
        slots = np.flatnonzero(view.active & ~view.evacuating & ~view.reserved())
        load = view.load()[slots]
        hosts = view.hosts
        if self.config.park_preference == "efficiency":
            ratio = (load / view.cores[slots]).tolist()
            buckets = np.array([round(r, 1) for r in ratio], dtype=float)
            idle = np.array([-hosts[k].profile.idle_w for k in slots.tolist()], dtype=float)
            order = np.lexsort((load, idle, buckets))
        else:
            order = np.argsort(load, kind="stable")
        return self.observer.park_filter([hosts[k] for k in slots[order].tolist()])

    def _shrink(
        self,
        view: PlanningView,
        surplus_cores: float,
        evac_cpu_target: Optional[float] = None,
    ) -> None:
        now = self.env.now
        target = evac_cpu_target if evac_cpu_target is not None else self.config.cpu_target
        parks = 0
        # Every candidate plans on the round's view: nothing a plan reads
        # changes between candidates (the evacuations started here first
        # run at a later event) except the ``evacuating`` flag of the
        # hosts started, which ``mark_evacuating`` mirrors into the view.
        for host in self._park_candidates(view):
            if parks >= self.config.max_parks_per_round:
                break
            if surplus_cores < host.cores:
                break
            if not self._can_spare(host):
                break
            plan = plan_evacuation(view, host, target, self.log.trace)
            if plan is None:
                continue
            task = _EvacuationTask(host, plan)
            self._evacs[host.name] = task
            host.evacuating = True
            view.mark_evacuating(host)
            self.log.emit(
                ManagerDecision(
                    now, "evac-start", host.name, "{} vm(s)".format(len(plan))
                )
            )
            self.env.process(self._evacuate_and_park(task))
            surplus_cores -= host.cores
            parks += 1

    def _can_spare(self, host: Host) -> bool:
        # Hosts already evacuating are on their way out; ``host`` itself is
        # counted via the explicit -1 (it may or may not be flagged yet).
        active_after = (
            self.cluster.n_active_hosts()
            - (
                self.cluster.n_evacuating_hosts()
                - (1 if host.evacuating else 0)
            )
            - 1
        )
        return active_after >= self.config.min_active_hosts

    def _choose_park_state(self) -> PowerState:
        cfg = self.config
        if cfg.deep_park_state is None:
            return cfg.park_state
        # A host sitting in the warm state but failed (out of service) or
        # held for maintenance cannot serve a fast wake — counting it as
        # warm would silently shrink the usable warm pool.
        warm = left_sum(
            1
            for h in self.cluster.hosts
            if not h.out_of_service
            and not h.in_maintenance
            and (
                (h.state is cfg.park_state and not h.machine.in_transition)
                or h.machine.target_state is cfg.park_state
            )
        )
        return cfg.park_state if warm < cfg.warm_pool_hosts else cfg.deep_park_state

    def _evacuate_and_park(
        self, task: _EvacuationTask
    ) -> Generator["Event", Any, None]:
        host = task.host
        migrations: List["Process"] = []
        for vm, dst in task.plan:
            if task.cancelled:
                break
            if vm.host is not host or vm.migrating:
                continue
            if not dst.is_active or not dst.fits(vm):
                task.cancel()  # plan went stale
                break
            try:
                flight = self.engine.migrate(vm, dst)
            except RuntimeError:
                # Admission race: a concurrent in-flight reservation can
                # fill the destination between the staleness check above
                # and the engine's own admission.  The plan is stale —
                # cancel the task instead of crashing the simulation.
                task.cancel()
                self.log.emit(
                    ManagerDecision(
                        self.env.now, "evac-stale", host.name,
                        "{}->{}".format(vm.name, dst.name),
                    )
                )
                break
            if self.engine.can_fail:
                # Fault model attached: watch each flight and retry on a
                # mid-copy failure.  The wrapper is gated so fault-free
                # runs submit the raw engine processes exactly as before
                # (byte-identical traces).
                migrations.append(
                    self.env.process(self._finish_migration(task, vm, flight))
                )
            else:
                migrations.append(flight)
        if migrations:
            yield self.env.all_of(migrations)
        parkable = (
            not task.cancelled
            and not host.vms
            and host.mem_reserved_gb <= 0
            and host.is_active
            and self._can_spare(host)
            # Safe mode: draining evacuations finish their migrations but
            # must not park — the freeze window admits no park decisions
            # (a checked trace invariant).
            and not self.governor.active
        )
        if parkable:
            state = self._choose_park_state()
            # The completed-evacuation marker must land at the same
            # instant as the park decision and the transition itself —
            # that ordering is a checked trace invariant.
            self.log.emit(EvacuationEnd(self.env.now, host.name, "complete"))
            self.log.emit(
                ManagerDecision(self.env.now, "park", host.name, state.value)
            )
            # Keep `evacuating` True until parked so no placement sneaks in.
            yield self.arbiter.park(host, state)
            self.log.emit(ManagerDecision(self.env.now, "park-complete", host.name))
        else:
            self.log.emit(
                EvacuationEnd(
                    self.env.now, host.name,
                    "cancelled" if task.cancelled else "aborted",
                )
            )
        host.evacuating = False
        self._evacs.pop(host.name, None)

    def _finish_migration(
        self, task: _EvacuationTask, vm: VM, flight: "Process"
    ) -> Generator["Event", Any, None]:
        """Watch one evacuation flight; retry failed copies with backoff.

        Bounded retries (``migration_retry_limit``) with exponential
        backoff, destination re-planning before each attempt, and a
        wall-clock deadline on the whole chain.  Exhaustion cancels the
        evacuation task so the host un-parks instead of wedging.
        """
        cfg = self.config
        chain_started = self.env.now
        attempt = 0
        while True:
            record = yield flight
            if record is None or not record.failed:
                return
            if task.cancelled or vm.host is not task.host:
                return
            attempt += 1
            if attempt > cfg.migration_retry_limit:
                task.cancel()
                return
            backoff = min(
                MIGRATION_BACKOFF_BASE_S * (2 ** (attempt - 1)),
                cfg.migration_backoff_max_s,
            )
            deadline = cfg.migration_deadline_s
            if (
                deadline is not None
                and self.env.now + backoff - chain_started > deadline
            ):
                task.cancel()
                return
            # Coalescable: flights that failed at the same instant share one
            # backoff event.  Retry callbacks reserve destination memory
            # synchronously in ``engine.migrate``, so resuming them back to
            # back (instead of interleaved with migration-process starts)
            # cannot change which destinations later retries see.
            yield self.env.shared_timeout(backoff)
            if task.cancelled or vm.host is not task.host or vm.migrating:
                return
            dst = self._retry_destination(task, vm)
            if dst is None:
                task.cancel()
                return
            self.log.emit(
                MigrationRetry(
                    self.env.now, vm.name, task.host.name, dst.name,
                    attempt=attempt + 1, backoff_s=backoff,
                )
            )
            try:
                flight = self.engine.migrate(vm, dst)
            except RuntimeError:
                # The re-planned destination filled during the backoff.
                task.cancel()
                return

    def _retry_destination(
        self, task: _EvacuationTask, vm: VM
    ) -> Optional[Host]:
        """Re-plan where ``vm`` should land for a retried migration.

        Re-runs the evacuation planner over the *whole* source host, on
        the cluster's view now, so the retry sees current loads and
        reservations; the original destination may be picked again if it
        is still the best target.  A plan needs every VM on the host, so
        while a sibling VM is still migrating it fails, and the caller
        then cancels the evacuation.
        """
        plan = plan_evacuation(
            self._planning_view(), task.host, self.config.cpu_target, self.log.trace
        )
        if plan is None:
            return None
        for planned_vm, dst in plan:
            if planned_vm is vm:
                return dst
        return None

    # ------------------------------------------------------------------
    # Operator maintenance mode
    # ------------------------------------------------------------------

    def request_maintenance(self, host: Host) -> "Process":
        """Evacuate ``host`` and power it off for service.

        Returns a process whose value is True once the host is safely
        down, or False if evacuation was impossible (in which case the
        maintenance hold is released).  Unlike consolidation evacuations,
        a maintenance drain is never cancelled by demand growth and may
        overload the remaining hosts (``cpu_target`` = 1.0).
        """
        if host not in self.cluster.hosts:
            raise ValueError("host {} is not managed here".format(host.name))
        if host.in_maintenance:
            raise RuntimeError("{} is already in maintenance".format(host.name))
        host.in_maintenance = True
        self.log.emit(ManagerDecision(self.env.now, "maintenance-start", host.name))
        return self.env.process(self._maintenance_drain(host))

    def end_maintenance(self, host: Host) -> Optional["Process"]:
        """Release the hold; wake the host if it was powered down."""
        if not host.in_maintenance:
            raise RuntimeError("{} is not in maintenance".format(host.name))
        host.in_maintenance = False
        self.log.emit(ManagerDecision(self.env.now, "maintenance-end", host.name))
        if host.state.is_parked and not host.machine.in_transition:
            return self.arbiter.dispatch_operator_wake(host)
        return None

    def _maintenance_park_state(self, host: Host) -> PowerState:
        if host.profile.can_transition(PowerState.ACTIVE, PowerState.OFF):
            return PowerState.OFF
        return host.profile.park_states()[-1]

    def _maintenance_drain(
        self, host: Host
    ) -> Generator["Event", Any, bool]:
        if host.state.is_parked:
            return True
        now = self.env.now
        plan = plan_evacuation(self._planning_view(), host, 1.0, self.log.trace)
        if plan is None:
            host.in_maintenance = False
            self.log.emit(
                ManagerDecision(self.env.now, "maintenance-abort", host.name)
            )
            return False
        host.evacuating = True
        self.log.emit(
            ManagerDecision(
                now, "evac-start", host.name,
                "maintenance, {} vm(s)".format(len(plan)),
            )
        )
        migrations = []
        for vm, dst in plan:
            if vm.host is host and not vm.migrating and dst.is_active:
                try:
                    migrations.append(self.engine.migrate(vm, dst))
                except RuntimeError:
                    # Concurrent reservation filled the destination since
                    # planning; leave the VM in place — the occupancy
                    # check below aborts the drain cleanly.
                    continue
        if migrations:
            yield self.env.all_of(migrations)
        if host.vms or host.mem_reserved_gb > 0:
            host.evacuating = False
            host.in_maintenance = False
            self.log.emit(EvacuationEnd(self.env.now, host.name, "aborted"))
            self.log.emit(
                ManagerDecision(self.env.now, "maintenance-abort", host.name)
            )
            return False
        park_state = self._maintenance_park_state(host)
        self.log.emit(EvacuationEnd(self.env.now, host.name, "complete"))
        self.log.emit(
            ManagerDecision(self.env.now, "park", host.name, park_state.value)
        )
        yield self.arbiter.park(host, park_state)
        host.evacuating = False
        self.log.emit(ManagerDecision(self.env.now, "maintenance-down", host.name))
        return True

    # ------------------------------------------------------------------
    # Helpers for capacity requests from admission
    # ------------------------------------------------------------------

    def _request_capacity(self, cores_needed: float) -> None:
        """Make room for pending admissions (cancel evac / wake a host)."""
        waking = left_sum(h.cores for h in self.cluster.waking_hosts())
        if waking >= cores_needed:
            return
        self._grow(cores_needed - waking, reactive=True)

    @property
    def pending_admissions(self) -> int:
        return len(self._pending)
