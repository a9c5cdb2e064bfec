"""Degraded management plane: migration faults, stale telemetry, safe mode.

Covers the fault-domain machinery end to end:

* seeded per-migration failure draws (:class:`MigrationFaultInjector`);
* the engine's mid-copy rollback (no leaked reservations, VM on source);
* the manager's bounded-retry policy with backoff, re-planning and the
  evacuation abort on exhaustion;
* the admission-race regression (``engine.migrate`` raising mid-plan
  must cancel the evacuation, not crash the simulation);
* the telemetry channel's delay/dropout semantics as the observer reads
  it, and the safe-mode governor's hysteretic enter/exit;
* the trace validator's migration-rollback / migration-retry /
  safe-mode invariant families on synthetic traces;
* maintenance drains under an active fault model (satellite: no double
  park, no leaked reservations);
* the runner wiring that surfaces the degraded-plane counters.
"""

import pytest

from repro.core import ManagerConfig, PowerAwareManager, run_scenario, s3_policy
from repro.core.plane import ClusterObserver, _EvacuationTask
from repro.core.seeding import stream_rng
from repro.datacenter import (
    Cluster,
    FaultModel,
    MigrationFaultInjector,
    MigrationFaultModel,
    VM,
)
from repro.migration import MigrationEngine
from repro.migration.engine import MigrationRecord
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import (
    Channel,
    ClusterSampler,
    ClusterView,
    StalenessModel,
    TraceBuffer,
    validate_trace,
)
from repro.trace_events import (
    EvacuationEnd,
    ManagerDecision,
    MigrationEnd,
    MigrationFailed,
    MigrationRetry,
    MigrationStart,
    SafeModeEnter,
    SafeModeExit,
)
from repro.workload import FlatTrace


def build(n_hosts=4, config=None, injector=None, telemetry=None, trace=None):
    env = Environment()
    cluster = Cluster.homogeneous(
        env, PROTOTYPE_BLADE, n_hosts, cores=16.0, mem_gb=128.0
    )
    engine = MigrationEngine(env, trace=trace, faults=injector)
    manager = PowerAwareManager(
        env, cluster, engine, config or ManagerConfig(),
        trace=trace, telemetry=telemetry,
    )
    return env, cluster, engine, manager


def flat_vm(name, vcpus=2, level=0.5, mem_gb=8):
    return VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))


def decisions(trace, action):
    return [e for e in trace.events
            if isinstance(e, ManagerDecision) and e.action == action]


def chain_ends(trace):
    """The last attempt of each retry chain whose evacuation ended.

    Every host here holds one VM, so an evacuation runs one chain; a
    chain still open at the horizon has not stopped and is left out.
    """
    ends, open_chains = [], {}
    for e in trace.events:
        if isinstance(e, MigrationRetry):
            open_chains[e.host] = e.attempt
        elif isinstance(e, EvacuationEnd) and e.host in open_chains:
            ends.append(open_chains.pop(e.host))
    return ends


class ScriptedInjector(MigrationFaultInjector):
    """Deterministic injector: fails the first ``fail_first`` admissions."""

    def __init__(self, fail_first=10**9, fraction=0.5):
        super().__init__(MigrationFaultModel(failure_rate=0.5), seed=0)
        self.fail_first = fail_first
        self.fraction = fraction
        self.draws = 0

    def draw_failure(self, migration_id):
        self.draws += 1
        if self.draws <= self.fail_first:
            return self.fraction
        return None


class TestMigrationFaultInjector:
    def test_draws_are_deterministic_per_id(self):
        model = MigrationFaultModel(failure_rate=0.5)
        a = MigrationFaultInjector(model, seed=7)
        b = MigrationFaultInjector(model, seed=7)
        for i in range(50):
            mid = "m{:06d}".format(i)
            assert a.draw_failure(mid) == b.draw_failure(mid)

    def test_draws_independent_of_order(self):
        model = MigrationFaultModel(failure_rate=0.5)
        inj = MigrationFaultInjector(model, seed=3)
        forward = [inj.draw_failure("m{:06d}".format(i)) for i in range(20)]
        backward = [
            inj.draw_failure("m{:06d}".format(i)) for i in reversed(range(20))
        ]
        assert forward == list(reversed(backward))

    def test_seed_changes_the_outcomes(self):
        model = MigrationFaultModel(failure_rate=0.5)
        outcomes = {
            seed: [
                MigrationFaultInjector(model, seed).draw_failure(
                    "m{:06d}".format(i)
                )
                for i in range(30)
            ]
            for seed in (0, 1)
        }
        assert outcomes[0] != outcomes[1]

    def test_fractions_respect_model_bounds(self):
        model = MigrationFaultModel(
            failure_rate=0.9, min_fail_fraction=0.3, max_fail_fraction=0.4
        )
        inj = MigrationFaultInjector(model, seed=1)
        fractions = [
            f
            for f in (inj.draw_failure("m{:06d}".format(i)) for i in range(100))
            if f is not None
        ]
        assert fractions, "rate 0.9 over 100 draws must fail sometimes"
        assert all(0.3 <= f < 0.4 for f in fractions)

    def test_zero_rate_never_fails(self):
        inj = MigrationFaultInjector(MigrationFaultModel(), seed=0)
        assert all(
            inj.draw_failure("m{:06d}".format(i)) is None for i in range(20)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(failure_rate=1.0),
            dict(failure_rate=-0.1),
            dict(min_fail_fraction=0.0),
            dict(min_fail_fraction=0.8, max_fail_fraction=0.2),
            dict(max_fail_fraction=1.0),
        ],
    )
    def test_model_validation(self, kwargs):
        with pytest.raises(ValueError):
            MigrationFaultModel(**kwargs)


class TestEngineRollback:
    def test_failed_flight_rolls_back_cleanly(self):
        injector = ScriptedInjector(fail_first=1, fraction=0.5)
        env, cluster, engine, _ = build(n_hosts=2, injector=injector)
        src, dst = cluster.hosts[0], cluster.hosts[1]
        vm = flat_vm("v0", mem_gb=16)
        cluster.add_vm(vm, src)
        flight = engine.migrate(vm, dst)
        assert dst.mem_reserved_gb == pytest.approx(16.0)
        env.run()
        record = flight.value
        assert record.failed and not record.aborted
        # Rollback: the VM never left the source, nothing stays reserved.
        assert vm.host is src and not vm.migrating
        assert dst.mem_reserved_gb == 0.0
        assert src.migration_tax_cores == 0.0
        assert dst.migration_tax_cores == 0.0
        assert (engine.failed, engine.completed, engine.aborted) == (1, 0, 0)

    def test_failed_flight_scales_duration_and_transfer(self):
        injector = ScriptedInjector(fail_first=1, fraction=0.5)
        env, cluster, engine, _ = build(n_hosts=2, injector=injector)
        vm = flat_vm("v0", mem_gb=16)
        cluster.add_vm(vm, cluster.hosts[0])
        outcome = engine.model.solve(vm.mem_gb, vm.dirty_rate_gbps)
        flight = engine.migrate(vm, cluster.hosts[1])
        env.run()
        record = flight.value
        assert record.duration_s == pytest.approx(0.5 * outcome.total_time_s)
        assert record.transferred_gb == pytest.approx(
            0.5 * outcome.transferred_gb
        )
        # The switch-over never happened: no downtime was incurred.
        assert record.downtime_s == 0.0

    def test_anti_affinity_reservation_released_on_failure(self):
        injector = ScriptedInjector(fail_first=1)
        env, cluster, engine, _ = build(n_hosts=2, injector=injector)
        vm = VM("v0", vcpus=2, mem_gb=8, trace=FlatTrace(0.5))
        vm.anti_affinity_group = "g"
        cluster.add_vm(vm, cluster.hosts[0])
        engine.migrate(vm, cluster.hosts[1])
        assert "g" in cluster.hosts[1].groups_reserved
        env.run()
        assert "g" not in cluster.hosts[1].groups_reserved


class TestRetryPolicy:
    def cfg(self, **kw):
        base = dict(
            period_s=300,
            park_delay_rounds=0,
            min_active_hosts=1,
            migration_retry_limit=2,
            migration_backoff_base_s=30.0,
            migration_backoff_max_s=300.0,
            migration_deadline_s=7200.0,
            # Keep the governor out of these focused retry tests.
            safe_mode_failure_threshold=None,
        )
        base.update(kw)
        return ManagerConfig(**base)

    def test_transient_failure_is_retried_to_success(self):
        trace = TraceBuffer(label="retry")
        injector = ScriptedInjector(fail_first=1)
        env, cluster, engine, manager = build(
            n_hosts=2, config=self.cfg(), injector=injector, trace=trace,
        )
        cluster.add_vm(flat_vm("a", level=0.3), cluster.hosts[0])
        cluster.add_vm(flat_vm("b", level=0.3), cluster.hosts[1])
        manager.start()
        env.run(until=4 * 3600)
        assert engine.failed == 1
        assert engine.completed >= 1
        assert manager.log.migration_retries >= 1
        assert len(cluster.parked_hosts()) >= 1
        retries = [e for e in trace.events if e.event == "migration-retry"]
        assert retries and all(r.attempt >= 2 for r in retries)
        report = validate_trace(trace, require_run_end=False)
        assert report.ok, report.render_text()

    def test_exhausted_retries_abort_the_evacuation(self):
        trace = TraceBuffer(label="exhausted")
        injector = ScriptedInjector()  # every admission fails
        env, cluster, engine, manager = build(
            n_hosts=2, config=self.cfg(), injector=injector, trace=trace,
        )
        cluster.add_vm(flat_vm("a", level=0.3), cluster.hosts[0])
        cluster.add_vm(flat_vm("b", level=0.3), cluster.hosts[1])
        manager.start()
        env.run(until=4 * 3600)
        # initial attempt + retry_limit retries, then the chain gives up.
        assert engine.completed == 0
        assert engine.failed >= 1 + 2
        assert manager.log.evacuations_aborted >= 1
        assert manager.log.parks_completed == 0
        # Every chain stops at attempt 1 + migration_retry_limit.
        ends = chain_ends(trace)
        assert ends and set(ends) == {3}
        # The host un-parks instead of wedging: everything stays active
        # and placed, with no reservation leaked anywhere.
        for vm in cluster.vms:
            assert vm.host is not None and vm.host.is_active
            assert not vm.migrating
        for host in cluster.hosts:
            assert host.mem_reserved_gb == 0.0
            assert not host.evacuating

    def test_backoff_grows_and_respects_the_cap(self):
        trace = TraceBuffer(label="backoff")
        injector = ScriptedInjector()
        env, cluster, engine, manager = build(
            n_hosts=2,
            config=self.cfg(migration_retry_limit=4, migration_backoff_max_s=70.0),
            injector=injector,
            trace=trace,
        )
        cluster.add_vm(flat_vm("a", level=0.3), cluster.hosts[0])
        cluster.add_vm(flat_vm("b", level=0.3), cluster.hosts[1])
        manager.start()
        env.run(until=6 * 3600)
        retries = [e for e in trace.events if e.event == "migration-retry"]
        assert len(retries) >= 3
        # Backoff doubles within a chain (attempt 2 opens a fresh chain at
        # the base) and saturates at the configured cap.
        chains = []
        for ev in retries:
            if ev.attempt == 2:
                chains.append([])
            chains[-1].append(ev.backoff_s)
        for chain in chains:
            assert chain == sorted(chain)
            assert chain[0] == pytest.approx(30.0)
            assert all(b <= 70.0 + 1e-9 for b in chain)
        assert max(b for chain in chains for b in chain) == pytest.approx(70.0)

    def test_deadline_cuts_the_chain_short(self):
        trace = TraceBuffer(label="deadline")
        injector = ScriptedInjector()
        env, cluster, engine, manager = build(
            n_hosts=2,
            config=self.cfg(
                migration_retry_limit=50, migration_deadline_s=600.0
            ),
            injector=injector,
            trace=trace,
        )
        cluster.add_vm(flat_vm("a", level=0.3), cluster.hosts[0])
        cluster.add_vm(flat_vm("b", level=0.3), cluster.hosts[1])
        manager.start()
        env.run(until=4 * 3600)
        # The deadline, not the limit of 50, stops every chain: the 30,
        # 60, 120 and 240 s backoffs (attempts 2-5) fit inside 600 s; the
        # next, capped at 300 s, does not.
        ends = chain_ends(trace)
        assert ends and set(ends) == {5}
        assert manager.log.evacuations_aborted >= 1


class TestAdmissionRaceRegression:
    """`engine.migrate` raising mid-plan cancels the task (no crash).

    Reproduces the narrated race: a concurrent in-flight reservation
    fills the destination *between* the evacuation loop's staleness
    check and the engine's own admission check.  On the unpatched
    manager the RuntimeError escaped the evacuation process and took
    down the simulation.
    """

    @staticmethod
    def _racy_fits(host, flips_after=1):
        """Replace ``host.fits`` so it goes False after N calls."""
        real_fits = host.fits
        calls = {"n": 0}

        def fits(vm):
            calls["n"] += 1
            if calls["n"] > flips_after:
                return False
            return real_fits(vm)

        host.fits = fits

    def test_racy_destination_cancels_the_evacuation(self):
        trace = TraceBuffer(label="race")
        env, cluster, engine, manager = build(n_hosts=3, trace=trace)
        src, dst = cluster.hosts[0], cluster.hosts[1]
        vm = flat_vm("racer")
        cluster.add_vm(vm, src)
        # First call (the loop's staleness check) passes; the second (the
        # engine's admission) sees the destination already filled.
        self._racy_fits(dst, flips_after=1)
        task = _EvacuationTask(src, [(vm, dst)])
        src.evacuating = True
        manager._evacs[src.name] = task
        env.process(manager._evacuate_and_park(task))
        env.run()  # must not raise
        assert task.cancelled
        assert vm.host is src and not vm.migrating
        assert not src.evacuating
        assert manager.log.evacuations_aborted == 1
        [stale, end] = trace.events
        assert isinstance(stale, ManagerDecision)
        assert (stale.action, stale.host) == ("evac-stale", src.name)
        assert stale.detail == "racer->{}".format(dst.name)
        assert isinstance(end, EvacuationEnd)
        assert (end.host, end.outcome) == (src.name, "cancelled")
        # The engine never admitted the flight, so nothing leaked.
        assert engine.started == 0
        assert dst.mem_reserved_gb == 0.0

    def test_maintenance_drain_survives_the_same_race(self):
        env, cluster, engine, manager = build(n_hosts=2)
        src, dst = cluster.hosts[0], cluster.hosts[1]
        vm = flat_vm("racer")
        cluster.add_vm(vm, src)
        # The maintenance loop re-checks only `is_active`, so the engine's
        # admission is the first `fits` call after planning.
        self._racy_fits(dst, flips_after=0)
        done = manager.request_maintenance(src)
        env.run()  # must not raise
        assert done.value is False
        assert vm.host is src
        assert not src.in_maintenance
        assert manager.log.evacuations_aborted == 1
        assert dst.mem_reserved_gb == 0.0


class TestSafeMode:
    def cfg(self, **kw):
        base = dict(
            period_s=300,
            park_delay_rounds=0,
            min_active_hosts=1,
            safe_mode_failure_threshold=0.5,
            safe_mode_min_failures=3,
            safe_mode_window_s=1800.0,
            safe_mode_telemetry_age_s=600.0,
            safe_mode_hold_s=900.0,
        )
        base.update(kw)
        return ManagerConfig(**base)

    @staticmethod
    def _failed_record(t, vm="v", src="h0", dst="h1"):
        return MigrationRecord(
            vm_name=vm, src_name=src, dst_name=dst,
            start_s=t, duration_s=0.0, downtime_s=0.0,
            transferred_gb=0.0, failed=True,
        )

    def test_failure_rate_trips_safe_mode(self):
        env, cluster, engine, manager = build(config=self.cfg())
        engine.records.extend(self._failed_record(0.0) for _ in range(3))
        manager.evaluate()
        assert manager.safe_mode
        assert manager.log.safe_mode_enters == 1
        # Re-evaluating inside the window must not re-enter.
        manager.evaluate()
        assert manager.log.safe_mode_enters == 1

    def test_few_failures_do_not_trip(self):
        env, cluster, engine, manager = build(config=self.cfg())
        engine.records.extend(self._failed_record(0.0) for _ in range(2))
        manager.evaluate()
        assert not manager.safe_mode

    def test_safe_mode_freezes_parking(self):
        cfg = self.cfg()
        trace = TraceBuffer(label="frozen")
        env, cluster, engine, manager = build(config=cfg, trace=trace)
        cluster.add_vm(flat_vm("only", level=0.2), cluster.hosts[0])
        engine.records.extend(self._failed_record(0.0) for _ in range(3))
        manager.evaluate()
        assert manager.safe_mode
        # Surplus capacity abounds, but the freeze admits no parks.
        env.run(until=2 * 3600)
        manager.evaluate()
        assert not decisions(trace, "park")
        assert len(cluster.parked_hosts()) == 0

    def test_hysteretic_exit_waits_for_hold_and_calm(self):
        env, cluster, engine, manager = build(config=self.cfg())
        engine.records.extend(self._failed_record(0.0) for _ in range(3))
        manager.evaluate()
        assert manager.safe_mode
        # Inside the hold window: still frozen even once records age out.
        env.run(until=600)
        manager.evaluate()
        assert manager.safe_mode
        # Past the hold and past the failure window: release.
        env.run(until=2000)
        manager.evaluate()
        assert not manager.safe_mode
        assert manager.log.safe_mode_exits == 1

    def test_stale_telemetry_trips_safe_mode(self):
        feed = Channel()
        trace = TraceBuffer(label="stale")
        env, cluster, engine, manager = build(
            config=self.cfg(), telemetry=feed, trace=trace
        )
        feed.send(
            [ClusterView(
                taken_at=0.0, demand_cores=4.0,
                committed_capacity_cores=64.0, active_hosts=4, vm_count=1,
            )],
            0.0,
        )
        env.run(until=100)
        manager.evaluate()
        assert not manager.safe_mode  # 100 s old: still fresh
        env.run(until=1000)
        manager.evaluate()
        assert manager.safe_mode  # 1000 s > 600 s age limit
        enters = [
            (e.reason, e.telemetry_age_s)
            for e in trace.events
            if isinstance(e, SafeModeEnter)
        ]
        assert enters == [("telemetry-stale", 1000.0)]

    def test_fresh_snapshot_releases_age_trip(self):
        feed = Channel()
        env, cluster, engine, manager = build(
            config=self.cfg(), telemetry=feed
        )
        feed.send(
            [ClusterView(
                taken_at=0.0, demand_cores=4.0,
                committed_capacity_cores=64.0, active_hosts=4, vm_count=1,
            )],
            0.0,
        )
        env.run(until=1000)
        manager.evaluate()
        assert manager.safe_mode
        # A fresh snapshot arrives; after the hold the governor releases.
        env.run(until=2000)
        feed.send(
            [ClusterView(
                taken_at=2000.0, demand_cores=4.0,
                committed_capacity_cores=64.0, active_hosts=4, vm_count=1,
            )],
            2000.0,
        )
        manager.evaluate()
        assert not manager.safe_mode

    def test_disabled_threshold_disables_the_governor(self):
        env, cluster, engine, manager = build(
            config=self.cfg(safe_mode_failure_threshold=None)
        )
        engine.records.extend(self._failed_record(0.0) for _ in range(10))
        manager.evaluate()
        assert not manager.safe_mode


class TestTelemetryFeed:
    """The telemetry channel: sampler (sender) -> observer (reader)."""

    def view(self, t, demand=8.0):
        return ClusterView(
            taken_at=t, demand_cores=demand,
            committed_capacity_cores=64.0, active_hosts=4, vm_count=4,
        )

    def observer(self, channel):
        env = Environment()
        cluster = Cluster.homogeneous(
            env, PROTOTYPE_BLADE, 1, cores=16.0, mem_gb=128.0
        )
        return ClusterObserver(cluster, MigrationEngine(env), channel)

    def test_cold_start_returns_none(self):
        channel = Channel()
        assert channel.deliver(0.0) == []
        # Nothing delivered yet: plan on ground truth (an idle host) and
        # report the full age so the governor can react.
        assert self.observer(channel).observe(50.0) == (0.0, 50.0)

    def test_delay_gates_visibility(self):
        channel = Channel(delay_s=60.0)
        observer = self.observer(channel)
        channel.send([self.view(0.0)], 0.0)
        assert observer.observe(30.0) == (0.0, 30.0)  # still cold
        assert observer.observe(60.0) == (8.0, 60.0)

    def test_newest_visible_snapshot_wins(self):
        channel = Channel(delay_s=60.0)
        observer = self.observer(channel)
        channel.send([self.view(0.0, demand=1.0)], 0.0)
        channel.send([self.view(300.0, demand=2.0)], 300.0)
        assert observer.observe(300.0) == (1.0, 300.0)
        assert observer.observe(360.0) == (2.0, 60.0)
        # Several due at once: delivered in send order, newest last.
        burst = Channel(delay_s=60.0)
        views = [self.view(float(t), demand=float(t)) for t in (0, 60, 120)]
        for v in views:
            burst.send([v], v.taken_at)
        assert burst.deliver(1000.0) == views

    def test_age_is_measured_from_taken_at(self):
        channel = Channel(delay_s=60.0)
        observer = self.observer(channel)
        channel.send([self.view(100.0)], 100.0)
        _, age = observer.observe(200.0)
        assert age == pytest.approx(100.0)

    def test_dropout_is_deterministic_per_seed_and_tick(self):
        def drops(seed):
            env = Environment()
            cluster = Cluster.homogeneous(
                env, PROTOTYPE_BLADE, 1, cores=16.0, mem_gb=128.0
            )
            channel = Channel(dropout_rate=0.5)
            sampler = ClusterSampler(
                env, cluster, epoch_s=60.0, telemetry=channel, seed=seed
            )
            sampler.start()
            env.run(until=40 * 60.0 - 1.0)
            assert sampler.samples == 40
            delivered = {v.taken_at for v in channel.deliver(env.now)}
            lost = [i * 60.0 not in delivered for i in range(40)]
            assert sampler.telemetry_dropped == sum(lost)
            assert len(delivered) + sampler.telemetry_dropped == 40
            return lost

        assert drops(1) == drops(1)
        assert drops(1) != drops(2)

    def test_dropped_tick_leaves_previous_snapshot_visible(self):
        channel = Channel(dropout_rate=0.5)
        observer = self.observer(channel)
        last_seen = None
        kept = 0
        for i in range(20):
            now = float(i)
            view = self.view(now, demand=float(i))
            if channel.send([view], now, stream_rng("telemetry", 1, i)) == 0:
                last_seen = view
                kept += 1
            if last_seen is not None:
                assert observer.observe(now) == (
                    last_seen.demand_cores, now - last_seen.taken_at
                )
        assert 0 < kept < 20


class TestValidatorFamilies:
    def check(self, buf):
        return validate_trace(buf, require_run_end=False)

    def test_clean_failure_and_retry_chain_passes(self):
        buf = TraceBuffer(label="ok")
        buf.emit(MigrationStart(0.0, "m0", "vm", "h0", "h1"))
        buf.emit(MigrationFailed(10.0, "m0", "vm", "h0", "h1",
                                 elapsed_s=10.0, fail_fraction=0.4))
        buf.emit(MigrationRetry(40.0, "vm", "h0", "h1",
                            attempt=2, backoff_s=30.0))
        buf.emit(MigrationStart(40.0, "m1", "vm", "h0", "h1"))
        buf.emit(MigrationEnd(80.0, "m1", "vm", "h0", "h1", aborted=False,
                              duration_s=40.0, downtime_s=0.1,
                              transferred_gb=8.0))
        report = self.check(buf)
        assert report.ok, report.render_text()

    def test_bad_fail_fraction_flags_rollback(self):
        buf = TraceBuffer(label="bad")
        buf.emit(MigrationStart(0.0, "m0", "vm", "h0", "h1"))
        buf.emit(MigrationFailed(10.0, "m0", "vm", "h0", "h1",
                                 elapsed_s=10.0, fail_fraction=1.5))
        report = self.check(buf)
        assert any(v.invariant == "migration-rollback" for v in report.violations)

    def test_failed_without_start_flags_conservation(self):
        buf = TraceBuffer(label="bad")
        buf.emit(MigrationFailed(10.0, "m9", "vm", "h0", "h1",
                                 elapsed_s=10.0, fail_fraction=0.5))
        report = self.check(buf)
        assert any(
            v.invariant == "migration-conservation" for v in report.violations
        )

    def test_retry_without_failure_flags(self):
        buf = TraceBuffer(label="bad")
        buf.emit(MigrationRetry(40.0, "vm", "h0", "h1", attempt=2, backoff_s=30.0))
        report = self.check(buf)
        assert any(v.invariant == "migration-retry" for v in report.violations)

    def test_retry_inside_backoff_window_flags(self):
        buf = TraceBuffer(label="bad")
        buf.emit(MigrationStart(0.0, "m0", "vm", "h0", "h1"))
        buf.emit(MigrationFailed(10.0, "m0", "vm", "h0", "h1",
                                 elapsed_s=10.0, fail_fraction=0.4))
        buf.emit(MigrationRetry(20.0, "vm", "h0", "h1",
                            attempt=2, backoff_s=30.0))
        report = self.check(buf)
        assert any(
            "backoff window" in v.message
            for v in report.violations
            if v.invariant == "migration-retry"
        )

    def test_shrinking_backoff_flags(self):
        # One continuous chain: fail, retry at 30 s backoff, fail again,
        # then retry with a *smaller* backoff — the monotonicity flag.
        buf = TraceBuffer(label="bad")
        buf.emit(MigrationStart(0.0, "m0", "vm", "h0", "h1"))
        buf.emit(MigrationFailed(5.0, "m0", "vm", "h0", "h1",
                                 elapsed_s=5.0, fail_fraction=0.4))
        buf.emit(MigrationRetry(35.0, "vm", "h0", "h1",
                            attempt=2, backoff_s=30.0))
        buf.emit(MigrationStart(35.0, "m1", "vm", "h0", "h1"))
        buf.emit(MigrationFailed(40.0, "m1", "vm", "h0", "h1",
                                 elapsed_s=5.0, fail_fraction=0.4))
        buf.emit(MigrationRetry(55.0, "vm", "h0", "h1",
                            attempt=3, backoff_s=10.0))
        report = self.check(buf)
        assert any(
            "backoff shrank" in v.message for v in report.violations
        )

    def test_fresh_migration_resets_the_retry_chain(self):
        # A later, unrelated migration of the same VM starts its attempt
        # count from scratch; the validator must not demand monotonicity
        # across chains.
        buf = TraceBuffer(label="ok")
        for i in range(2):
            t = 1000.0 * i
            mid = "m{}".format(i)
            buf.emit(MigrationStart(t, mid, "vm", "h0", "h1"))
            buf.emit(MigrationFailed(t + 10.0, mid, "vm", "h0", "h1",
                                     elapsed_s=10.0, fail_fraction=0.4))
            buf.emit(MigrationRetry(t + 40.0, "vm", "h0", "h1",
                                attempt=2, backoff_s=30.0))
            buf.emit(MigrationStart(t + 40.0, mid + "x", "vm", "h0", "h1"))
            buf.emit(MigrationEnd(t + 80.0, mid + "x", "vm", "h0", "h1",
                                  aborted=False, duration_s=40.0,
                                  downtime_s=0.1, transferred_gb=8.0))
        report = self.check(buf)
        assert report.ok, report.render_text()

    def test_park_inside_safe_mode_flags(self):
        buf = TraceBuffer(label="bad")
        buf.emit(SafeModeEnter(0.0, "migration-failures",
                            failure_rate=0.8, telemetry_age_s=0.0))
        buf.emit(ManagerDecision(100.0, "park", "h3", detail="s3"))
        report = self.check(buf)
        assert any(v.invariant == "safe-mode" for v in report.violations)

    def test_maintenance_park_inside_safe_mode_is_allowed(self):
        buf = TraceBuffer(label="ok")
        buf.emit(SafeModeEnter(0.0, "migration-failures",
                            failure_rate=0.8, telemetry_age_s=0.0))
        buf.emit(ManagerDecision(50.0, "maintenance-start", "h3"))
        buf.emit(ManagerDecision(100.0, "park", "h3", detail="off"))
        buf.emit(SafeModeExit(1000.0, dwell_s=1000.0))
        report = self.check(buf)
        assert report.ok, report.render_text()

    def test_nested_enter_and_dwell_mismatch_flag(self):
        buf = TraceBuffer(label="bad")
        buf.emit(SafeModeEnter(0.0, "migration-failures",
                            failure_rate=0.8, telemetry_age_s=0.0))
        buf.emit(SafeModeEnter(10.0, "telemetry-stale",
                            failure_rate=0.0, telemetry_age_s=700.0))
        buf.emit(SafeModeExit(100.0, dwell_s=5.0))
        report = self.check(buf)
        flagged = [v for v in report.violations if v.invariant == "safe-mode"]
        assert len(flagged) == 2

    def test_unknown_reason_flags(self):
        buf = TraceBuffer(label="bad")
        buf.emit(SafeModeEnter(0.0, "cosmic-rays",
                            failure_rate=0.0, telemetry_age_s=0.0))
        report = self.check(buf)
        assert any(
            "unknown safe-mode reason" in v.message for v in report.violations
        )


class TestMaintenanceUnderFaults:
    def test_drain_aborts_cleanly_when_migrations_fail(self):
        trace = TraceBuffer(label="drain")
        injector = ScriptedInjector()  # every flight fails mid-copy
        env, cluster, engine, manager = build(
            n_hosts=3, injector=injector, trace=trace
        )
        host = cluster.hosts[0]
        cluster.add_vm(flat_vm("a", mem_gb=16), host)
        cluster.add_vm(flat_vm("b", mem_gb=16), host)
        done = manager.request_maintenance(host)
        env.run()
        assert done.value is False
        assert engine.failed == 2
        # The drain aborted: hold released, host still active, not parked.
        assert not host.in_maintenance
        assert host.is_active and not host.evacuating
        assert not decisions(trace, "park")
        assert manager.log.evacuations_aborted == 1
        assert len(decisions(trace, "maintenance-abort")) == 1
        # Both VMs rolled back to the host; nothing stays reserved.
        assert set(host.vms) == {"a", "b"}
        for h in cluster.hosts:
            assert h.mem_reserved_gb == 0.0
            assert not h.groups_reserved


class TestRunnerWiring:
    KW = dict(n_hosts=6, n_vms=18, horizon_s=8 * 3600.0, seed=11)

    def test_degraded_counters_surface_in_extra(self):
        faults = FaultModel(migration=MigrationFaultModel(failure_rate=0.3))
        result = run_scenario(
            s3_policy(),
            trace=True,
            fault_model=faults,
            telemetry_model=StalenessModel(delay_s=60.0, dropout_rate=0.2),
            **self.KW
        )
        extra = result.report.extra
        assert extra["migrations_failed"] > 0
        assert extra["migrations_started"] == (
            extra["migrations_completed"]
            + extra["migrations_aborted"]
            + extra["migrations_failed"]
        )
        assert extra["telemetry_dropped"] > 0
        outcome = validate_trace(result.trace, report=result.report)
        assert outcome.ok, outcome.render_text()

    def test_fault_free_run_reports_zero_degradation(self):
        result = run_scenario(s3_policy(), **self.KW)
        extra = result.report.extra
        assert extra["migrations_failed"] == 0
        assert extra["migration_retries"] == 0
        assert extra["safe_mode_enters"] == 0
        assert extra["telemetry_dropped"] == 0
