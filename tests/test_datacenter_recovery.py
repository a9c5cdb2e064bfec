"""Ride-through fault recovery: scoreboard, chaos, repair, escalation.

Covers the recovery subsystem end to end:

* :class:`~repro.datacenter.WakeScoreboard` backoff/blacklist arithmetic;
* :class:`~repro.datacenter.ChaosSchedule` windowed bursts and brownouts;
* operator repair (MTTR) returning out-of-service hosts to the pool;
* manager behaviour — retry on a later watchdog tick, preferring a
  different parked host, blacklisting, watchdog escalation;
* the new trace invariants (``wake-backoff``, ``blacklist-hold``,
  ``repair-reentry``, ``escalation-payload``) on synthetic streams;
* determinism of the whole fault stack across process-pool workers.
"""

import pytest

from repro.core import (
    ManagerConfig,
    PowerAwareManager,
    ScenarioSpec,
    run_scenario,
    run_scenarios,
    s3_policy,
)
from repro.core.cache import scenario_digest
from repro.datacenter import (
    Brownout,
    ChaosSchedule,
    Cluster,
    FailureBurst,
    FaultInjector,
    FaultModel,
    Host,
    RepairModel,
    VM,
    WakeScoreboard,
    brownout_window,
    burst_window,
)
from repro.migration import MigrationEngine
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TraceBuffer, validate_trace
from repro.trace_events import (
    Escalation,
    FaultInjected,
    HostBlacklisted,
    HostFinal,
    HostInit,
    HostRepaired,
    ManagerDecision,
    RunEnd,
    TransitionEnd,
    TransitionStart,
    WakeRetry,
    WatchdogWake,
)
from repro.workload import FlatTrace, FleetSpec, StepTrace


class TestWakeScoreboard:
    def test_clean_host_is_eligible_with_no_backoff(self):
        sb = WakeScoreboard()
        assert sb.eligible("h0", 0.0)
        assert sb.failures("h0") == 0
        assert sb.backoff_s("h0") == 0.0

    def test_backoff_doubles_and_caps(self):
        sb = WakeScoreboard(backoff_base_s=60.0, backoff_max_s=200.0,
                            blacklist_after_failures=99)
        sb.record_failure("h0", 0.0)
        assert sb.backoff_s("h0") == 60.0
        sb.record_failure("h0", 100.0)
        assert sb.backoff_s("h0") == 120.0
        sb.record_failure("h0", 300.0)
        assert sb.backoff_s("h0") == 200.0  # capped
        sb.record_failure("h0", 600.0)
        assert sb.backoff_s("h0") == 200.0

    def test_backoff_window_blocks_then_releases(self):
        sb = WakeScoreboard(backoff_base_s=60.0)
        sb.record_failure("h0", 1000.0)
        assert not sb.eligible("h0", 1030.0)
        assert sb.eligible("h0", 1060.0)

    def test_blacklist_after_threshold(self):
        sb = WakeScoreboard(backoff_base_s=1.0, blacklist_after_failures=2,
                            blacklist_hold_s=500.0)
        assert sb.record_failure("h0", 0.0) is None
        until = sb.record_failure("h0", 10.0)
        assert until == 510.0
        assert sb.blacklisted("h0", 100.0)
        assert not sb.eligible("h0", 100.0)
        assert not sb.blacklisted("h0", 510.0)

    def test_success_resets_history(self):
        sb = WakeScoreboard(backoff_base_s=60.0)
        sb.record_failure("h0", 0.0)
        sb.record_success("h0")
        assert sb.failures("h0") == 0
        assert sb.eligible("h0", 1.0)

    def test_repair_resets_history_and_blacklist(self):
        sb = WakeScoreboard(backoff_base_s=1.0, blacklist_after_failures=1,
                            blacklist_hold_s=10_000.0)
        sb.record_failure("h0", 0.0)
        assert sb.blacklisted("h0", 5.0)
        sb.record_repair("h0")
        assert sb.eligible("h0", 5.0)

    def test_attempt_numbers_are_monotone_across_dispatches(self):
        # Regression for the wake-backoff "retry attempt did not increase"
        # violation: when several wake requests collapse into one in-flight
        # transition, numbering must still advance per *dispatch*, not per
        # resolved failure.  Fails on the pre-arbiter scoreboard, where
        # attempt() read failures+1 and two dispatches without a resolved
        # failure in between both claimed attempt 1.
        sb = WakeScoreboard(backoff_base_s=60.0, blacklist_after_failures=99)
        assert sb.attempt("h0") == 1
        assert sb.begin_attempt("h0") == 1
        # Second dispatch before the first resolves: strictly larger.
        assert sb.attempt("h0") == 2
        assert sb.begin_attempt("h0") == 2
        # The first dispatch now resolves as a failure; numbering does not
        # fall back below what was already handed out.
        sb.record_failure("h0", 100.0)
        assert sb.attempt("h0") == 3
        assert sb.begin_attempt("h0") == 3
        # Once every dispatch has resolved (3 dispatched, 3 failed) the
        # numbering matches the historical failures+1 read exactly.
        sb.record_failure("h0", 200.0)
        sb.record_failure("h0", 300.0)
        assert sb.failures("h0") == 3
        assert sb.attempt("h0") == sb.failures("h0") + 1
        # Success wipes the record: numbering restarts at 1.
        sb.record_success("h0")
        assert sb.attempt("h0") == 1
        assert sb.begin_attempt("h0") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WakeScoreboard(backoff_base_s=0.0)
        with pytest.raises(ValueError):
            WakeScoreboard(backoff_max_s=1.0, backoff_base_s=60.0)
        with pytest.raises(ValueError):
            WakeScoreboard(blacklist_after_failures=0)
        with pytest.raises(ValueError):
            WakeScoreboard(blacklist_hold_s=-1.0)


class TestChaosSchedule:
    def test_burst_raises_rate_inside_window_only(self):
        model = FaultModel(wake_failure_rate=0.05,
                           chaos=burst_window(100.0, 200.0, 0.8))
        assert model.failure_rate_at(50.0) == 0.05
        assert model.failure_rate_at(150.0) == 0.8
        assert model.failure_rate_at(200.0) == 0.05  # half-open window

    def test_burst_never_lowers_the_base_rate(self):
        model = FaultModel(wake_failure_rate=0.5,
                           chaos=burst_window(0.0, 100.0, 0.1))
        assert model.failure_rate_at(50.0) == 0.5

    def test_brownout_scales_latency_inside_window_only(self):
        model = FaultModel(chaos=brownout_window(100.0, 200.0, 3.0))
        assert model.wake_latency_scale_at(50.0) == 1.0
        assert model.wake_latency_scale_at(150.0) == 3.0
        assert model.wake_latency_scale_at(250.0) == 1.0

    def test_overlapping_windows_take_the_worst(self):
        chaos = ChaosSchedule(
            bursts=(FailureBurst(0, 100, 0.3), FailureBurst(50, 150, 0.6)),
            brownouts=(Brownout(0, 100, 2.0), Brownout(50, 150, 5.0)),
        )
        assert chaos.failure_rate_at(75.0, 0.0) == 0.6
        assert chaos.latency_scale_at(75.0) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureBurst(100.0, 100.0, 0.5)
        with pytest.raises(ValueError):
            FailureBurst(0.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            Brownout(0.0, 100.0, 0.5)
        with pytest.raises(ValueError):
            RepairModel(mttr_s=0.0)

    def test_brownout_stretches_wake_latency(self):
        env = Environment()
        host = Host(
            env, "h0", PROTOTYPE_BLADE,
            initial_state=PowerState.SLEEP,
            faults=FaultModel(chaos=brownout_window(0.0, 10_000.0, 3.0)),
            fault_seed=0,
        )
        spec = PROTOTYPE_BLADE.transition(PowerState.SLEEP, PowerState.ACTIVE)
        proc = env.process(host.wake())
        env.run(until=proc)
        assert env.now == pytest.approx(3.0 * spec.latency_s)
        assert host.is_active

    def test_wake_outside_brownout_is_nominal(self):
        env = Environment()
        host = Host(
            env, "h0", PROTOTYPE_BLADE,
            initial_state=PowerState.SLEEP,
            faults=FaultModel(chaos=brownout_window(50_000.0, 60_000.0, 3.0)),
            fault_seed=0,
        )
        spec = PROTOTYPE_BLADE.transition(PowerState.SLEEP, PowerState.ACTIVE)
        proc = env.process(host.wake())
        env.run(until=proc)
        assert env.now == pytest.approx(spec.latency_s)


class TestRepairModel:
    def test_no_repair_model_means_no_delay(self):
        injector = FaultInjector(FaultModel(wake_failure_rate=0.5), seed=0,
                                 host_name="h0")
        assert injector.repair_delay_s() is None

    def test_repair_delay_positive_and_deterministic(self):
        model = FaultModel(wake_failure_rate=0.5, repair=RepairModel(mttr_s=3600.0))
        a = FaultInjector(model, seed=7, host_name="h0")
        b = FaultInjector(model, seed=7, host_name="h0")
        da = [a.repair_delay_s() for _ in range(5)]
        db = [b.repair_delay_s() for _ in range(5)]
        assert da == db
        assert all(d > 0 for d in da)

    def test_repair_stream_does_not_perturb_failure_draws(self):
        plain = FaultInjector(FaultModel(wake_failure_rate=0.5), seed=3,
                              host_name="h0")
        with_repair = FaultInjector(
            FaultModel(wake_failure_rate=0.5, repair=RepairModel(mttr_s=60.0)),
            seed=3, host_name="h0",
        )
        with_repair.repair_delay_s()  # interleave a repair draw
        assert [plain.draw_wake_failure() for _ in range(30)] == [
            with_repair.draw_wake_failure() for _ in range(30)
        ]

    def test_host_repair_lifecycle(self):
        env = Environment()
        host = Host(
            env, "h0", PROTOTYPE_BLADE,
            initial_state=PowerState.SLEEP,
            faults=FaultModel(wake_failure_rate=0.99, permanent_fraction=1.0,
                              repair=RepairModel(mttr_s=3600.0)),
            fault_seed=0,
        )
        proc = env.process(host.wake())
        env.run(until=proc)
        assert host.out_of_service
        assert host.repair_delay_s() > 0
        host.repair()
        assert not host.out_of_service
        assert host.state is PowerState.SLEEP  # stays parked, now wakeable

    def test_repair_requires_out_of_service(self):
        env = Environment()
        host = Host(env, "h0", PROTOTYPE_BLADE)
        with pytest.raises(RuntimeError):
            host.repair()


class _ScriptedInjector:
    """Stand-in injector with a scripted failure sequence (unit tests)."""

    def __init__(self, failures, permanents=(), repair_delay=None):
        self._failures = list(failures)
        self._permanents = list(permanents)
        self.repair_delay = repair_delay

    def draw_wake_failure(self, t=0.0):
        return self._failures.pop(0) if self._failures else False

    def draw_permanent(self, t=0.0):
        return self._permanents.pop(0) if self._permanents else False

    def repair_delay_s(self):
        return self.repair_delay


def build_recovery(n_hosts, config, parked=()):
    """A cluster with the named hosts pre-parked (SLEEP) and a manager."""
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, n_hosts)
    for host in cluster.hosts:
        if host.name in parked:
            proc = env.process(host.park(PowerState.SLEEP))
            env.run(until=proc)
    engine = MigrationEngine(env)
    manager = PowerAwareManager(env, cluster, engine, config)
    return env, cluster, engine, manager


SURGE = StepTrace([(0.0, 0.1), (2 * 3600.0, 1.0)])


class TestManagerRecovery:
    def recovery_config(self, **overrides):
        kw = dict(
            period_s=300,
            watchdog_period_s=60,
            park_delay_rounds=99,  # keep parking out of the picture
            wake_backoff_base_s=30.0,
        )
        kw.update(overrides)
        return ManagerConfig(**kw)

    def test_transient_failure_retried_on_later_tick(self):
        cfg = self.recovery_config()
        env, cluster, engine, manager = build_recovery(
            2, cfg, parked=("host-001",)
        )
        flaky = cluster.hosts[1]
        flaky._injector = _ScriptedInjector(failures=[True, False])
        cluster.add_vm(
            VM("vm-0", vcpus=14, mem_gb=16, trace=SURGE), cluster.hosts[0]
        )
        manager.start()
        env.run(until=4 * 3600)
        assert manager.log.wake_failures == 1
        assert manager.log.wake_retries >= 1
        assert flaky.is_active
        # Success cleared the scoreboard record.
        assert manager.scoreboard.failures("host-001") == 0

    def test_failure_prefers_a_different_parked_host(self):
        cfg = self.recovery_config()
        env, cluster, engine, manager = build_recovery(
            3, cfg, parked=("host-001", "host-002")
        )
        flaky, clean = cluster.hosts[1], cluster.hosts[2]
        flaky._injector = _ScriptedInjector(failures=[True] * 50)
        cluster.add_vm(
            VM("vm-0", vcpus=14, mem_gb=16, trace=SURGE), cluster.hosts[0]
        )
        manager.start()
        env.run(until=4 * 3600)
        # After host-001's failure the scoreboard sorts host-002 first.
        assert clean.is_active
        assert not flaky.is_active

    def test_repeated_failures_blacklist_the_host(self):
        cfg = self.recovery_config(
            blacklist_after_failures=2, blacklist_hold_s=4 * 3600.0
        )
        env, cluster, engine, manager = build_recovery(
            2, cfg, parked=("host-001",)
        )
        flaky = cluster.hosts[1]
        flaky._injector = _ScriptedInjector(failures=[True] * 50)
        cluster.add_vm(
            VM("vm-0", vcpus=14, mem_gb=16, trace=SURGE), cluster.hosts[0]
        )
        manager.start()
        env.run(until=4 * 3600)
        assert manager.log.wake_failures >= 2
        assert manager.log.blacklists == 1
        # The hold outlives the run: the host is still blacklisted, and no
        # wake was attempted during the hold (2 attempts total).
        assert manager.scoreboard.blacklisted("host-001", env.now)
        assert manager.log.wakes_requested == 2

    def test_persistent_shortfall_escalates(self):
        buf = TraceBuffer(label="esc")
        cfg = self.recovery_config(
            escalation_after_ticks=3, escalation_boost_hosts=2,
        )
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 1)
        engine = MigrationEngine(env)
        manager = PowerAwareManager(env, cluster, engine, cfg, trace=buf)
        # One host, overloaded forever, nothing parked to wake: the
        # shortfall can never clear, so the tick counter must escalate.
        cluster.add_vm(
            VM("vm-0", vcpus=16, mem_gb=16, trace=FlatTrace(1.0)),
            cluster.hosts[0],
        )
        manager.start()
        env.run(until=3600)
        assert manager.log.escalations >= 1
        check = validate_trace(buf, require_run_end=False)
        assert "escalation-payload" not in check.invariants_violated()

    def test_escalation_disabled_with_none(self):
        cfg = self.recovery_config(escalation_after_ticks=None)
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 1)
        engine = MigrationEngine(env)
        manager = PowerAwareManager(env, cluster, engine, cfg)
        cluster.add_vm(
            VM("vm-0", vcpus=16, mem_gb=16, trace=FlatTrace(1.0)),
            cluster.hosts[0],
        )
        manager.start()
        env.run(until=3600)
        assert manager.log.escalations == 0

    def test_permanent_failure_repaired_and_rejoins_pool(self):
        cfg = self.recovery_config()
        env, cluster, engine, manager = build_recovery(
            2, cfg, parked=("host-001",)
        )
        broken = cluster.hosts[1]
        broken._injector = _ScriptedInjector(
            failures=[True, False], permanents=[True], repair_delay=600.0
        )
        cluster.add_vm(
            VM("vm-0", vcpus=14, mem_gb=16, trace=SURGE), cluster.hosts[0]
        )
        manager.start()
        env.run(until=6 * 3600)
        assert manager.log.hosts_repaired == 1
        assert not broken.out_of_service
        # Repaired and — under continuing shortfall — woken again.
        assert broken.is_active

    def test_permanent_failure_without_repair_stays_down(self):
        result = run_scenario(
            s3_policy(),
            n_hosts=4,
            horizon_s=8 * 3600,
            seed=5,
            fleet_spec=FleetSpec(n_vms=12, horizon_s=8 * 3600.0,
                                 shared_fraction=0.6),
            fault_model=FaultModel(wake_failure_rate=0.9, permanent_fraction=1.0),
        )
        extra = result.report.extra
        # No RepairModel: every permanent failure is terminal and must be
        # visible in the end-of-run accounting.
        assert extra["hosts_out_of_service"] == float(
            len(result.cluster.out_of_service_hosts())
        )
        assert extra["hosts_repaired"] == 0.0
        if extra["wake_failures"] > 0:
            assert extra["hosts_out_of_service"] >= 1.0


class TestWarmPoolCensus:
    def build_hybrid_manager(self, env, hosts):
        cluster = Cluster(env, hosts)
        engine = MigrationEngine(env)
        cfg = ManagerConfig(
            park_state=PowerState.SLEEP,
            deep_park_state=PowerState.OFF,
            warm_pool_hosts=1,
        )
        return PowerAwareManager(env, cluster, engine, cfg)

    def test_dead_warm_host_not_counted(self):
        env = Environment()
        hosts = [
            Host(env, "h0", PROTOTYPE_BLADE),
            Host(env, "h1", PROTOTYPE_BLADE, initial_state=PowerState.SLEEP),
        ]
        hosts[1].out_of_service = True
        manager = self.build_hybrid_manager(env, hosts)
        # The only S3 host is dead: it cannot serve a fast wake, so the
        # warm pool is empty and the next park must stay warm (SLEEP).
        assert manager._choose_park_state() is PowerState.SLEEP

    def test_maintenance_host_not_counted(self):
        env = Environment()
        hosts = [
            Host(env, "h0", PROTOTYPE_BLADE),
            Host(env, "h1", PROTOTYPE_BLADE, initial_state=PowerState.SLEEP),
        ]
        hosts[1].in_maintenance = True
        manager = self.build_hybrid_manager(env, hosts)
        assert manager._choose_park_state() is PowerState.SLEEP

    def test_healthy_warm_host_still_counts(self):
        env = Environment()
        hosts = [
            Host(env, "h0", PROTOTYPE_BLADE),
            Host(env, "h1", PROTOTYPE_BLADE, initial_state=PowerState.SLEEP),
        ]
        manager = self.build_hybrid_manager(env, hosts)
        # Warm pool full (1 healthy S3 host): next park goes deep.
        assert manager._choose_park_state() is PowerState.OFF


def synthetic_host(buf, name="h0"):
    buf.emit(HostInit(0.0, name, "sleep", cores=16.0, mem_gb=128.0))


class TestRecoveryInvariants:
    """The new validator invariants on hand-built event streams."""

    def check(self, buf):
        return set(
            validate_trace(buf, require_run_end=False).invariants_violated()
        )

    def retry(self, buf, t, attempt, backoff_s, host="h0"):
        buf.emit(WakeRetry(t, host, attempt=attempt, backoff_s=backoff_s))
        buf.emit(ManagerDecision(t, "wake", host=host))

    def test_clean_retry_sequence_passes(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(ManagerDecision(100.0, "wake-failed", host="h0"))
        self.retry(buf, 200.0, attempt=2, backoff_s=60.0)
        assert "wake-backoff" not in self.check(buf)

    def test_retry_inside_backoff_window_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(ManagerDecision(100.0, "wake-failed", host="h0"))
        self.retry(buf, 130.0, attempt=2, backoff_s=60.0)
        assert "wake-backoff" in self.check(buf)

    def test_shrinking_backoff_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.retry(buf, 100.0, attempt=2, backoff_s=120.0)
        self.retry(buf, 400.0, attempt=3, backoff_s=60.0)
        assert "wake-backoff" in self.check(buf)

    def test_non_increasing_attempt_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.retry(buf, 100.0, attempt=2, backoff_s=60.0)
        self.retry(buf, 400.0, attempt=2, backoff_s=60.0)
        assert "wake-backoff" in self.check(buf)

    def test_retry_without_wake_decision_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(WakeRetry(100.0, "h0", attempt=2, backoff_s=60.0))
        assert "wake-backoff" in self.check(buf)

    def test_wake_inside_blacklist_hold_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(HostBlacklisted(100.0, "h0", failures=3, until_t=2000.0))
        buf.emit(ManagerDecision(500.0, "wake", host="h0"))
        buf.emit(TransitionStart(500.0, "h0", "sleep", "active",
                                 latency_s=10.0, power_w=100.0))
        assert "blacklist-hold" in self.check(buf)

    def test_wake_after_hold_expires_passes(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(HostBlacklisted(100.0, "h0", failures=3, until_t=2000.0))
        buf.emit(ManagerDecision(2500.0, "wake", host="h0"))
        buf.emit(TransitionStart(2500.0, "h0", "sleep", "active",
                                 latency_s=10.0, power_w=100.0))
        assert "blacklist-hold" not in self.check(buf)

    def test_malformed_blacklist_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(HostBlacklisted(100.0, "h0", failures=0, until_t=50.0))
        assert "blacklist-hold" in self.check(buf)

    def permanent_failure(self, buf, t0=100.0):
        """Inject the canonical permanent-failure wake at ``t0``."""
        buf.emit(FaultInjected(t0, "h0", permanent=False))
        buf.emit(FaultInjected(t0, "h0", permanent=True))
        buf.emit(ManagerDecision(t0, "wake", host="h0"))
        buf.emit(TransitionStart(t0, "h0", "sleep", "active",
                                 latency_s=10.0, power_w=100.0))
        buf.emit(TransitionEnd(t0 + 10.0, "h0", "sleep", "active",
                               state="sleep", failed=True))

    def test_repair_with_matching_downtime_passes(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.permanent_failure(buf)
        buf.emit(HostRepaired(710.0, "h0", downtime_s=600.0))
        assert self.check(buf) == set()

    def test_wake_while_out_of_service_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.permanent_failure(buf)
        buf.emit(ManagerDecision(500.0, "wake", host="h0"))
        buf.emit(TransitionStart(500.0, "h0", "sleep", "active",
                                 latency_s=10.0, power_w=100.0))
        assert "repair-reentry" in self.check(buf)

    def test_repair_without_failure_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(HostRepaired(500.0, "h0", downtime_s=100.0))
        assert "repair-reentry" in self.check(buf)

    def test_repair_downtime_mismatch_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.permanent_failure(buf)
        buf.emit(HostRepaired(710.0, "h0", downtime_s=50.0))
        assert "repair-reentry" in self.check(buf)

    def test_host_final_oos_mismatch_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.permanent_failure(buf)
        buf.emit(HostFinal(1000.0, "h0", "sleep", energy_j=1.0,
                           wake_failures=1, out_of_service=False))
        buf.emit(RunEnd(1000.0, horizon_s=1000.0, energy_kwh=1.0 / 3.6e6,
                        hosts=1, vms=0, migrations_unfinished=0))
        assert "fault-accounting" in set(
            validate_trace(buf).invariants_violated()
        )

    def test_escalation_with_reactive_wake_passes(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(WatchdogWake(100.0, "aggregate", shortfall_cores=8.0,
                          demand_cores=20.0, committed_cores=16.0,
                          cap_cores=-1.0))
        buf.emit(Escalation(100.0, ticks=3, extra_hosts=1, shortfall_cores=8.0))
        assert "escalation-payload" not in self.check(buf)

    def test_escalation_without_reactive_wake_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(Escalation(100.0, ticks=3, extra_hosts=1, shortfall_cores=8.0))
        assert "escalation-payload" in self.check(buf)

    def test_malformed_escalation_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        buf.emit(WatchdogWake(100.0, "aggregate", shortfall_cores=8.0,
                          demand_cores=20.0, committed_cores=16.0,
                          cap_cores=-1.0))
        buf.emit(Escalation(100.0, ticks=0, extra_hosts=0, shortfall_cores=-1.0))
        assert "escalation-payload" in self.check(buf)


FAULT_KW = dict(
    n_hosts=6,
    horizon_s=8 * 3600.0,
    seed=21,
    fleet_spec=FleetSpec(n_vms=18, horizon_s=8 * 3600.0, shared_fraction=0.5),
    churn_rate_per_h=2.0,
    fault_model=FaultModel(
        wake_failure_rate=0.4,
        permanent_fraction=0.3,
        repair=RepairModel(mttr_s=3600.0),
        chaos=ChaosSchedule(
            bursts=(FailureBurst(3600.0, 10800.0, 0.8),),
            brownouts=(Brownout(7200.0, 14400.0, 2.5),),
        ),
    ),
)


class TestRecoveryDeterminism:
    def test_fault_stack_identical_across_workers(self):
        serial = run_scenario(s3_policy(), **FAULT_KW)
        (pooled,) = run_scenarios(
            [ScenarioSpec(s3_policy(), kwargs=dict(FAULT_KW))],
            workers=2,
            cache=False,
        )
        assert pooled.report.to_dict() == serial.report.to_dict()

    def test_traced_fault_run_is_reproducible(self):
        a = run_scenario(s3_policy(), trace=True, **FAULT_KW)
        b = run_scenario(s3_policy(), trace=True, **FAULT_KW)
        assert a.trace.trace_hash() == b.trace.trace_hash()

    def test_chaotic_trace_passes_the_invariant_checker(self):
        result = run_scenario(s3_policy(), trace=True, **FAULT_KW)
        check = validate_trace(result.trace, report=result.report)
        assert check.ok, "\n" + check.render_text()


class TestRecoveryCacheContract:
    def test_untraced_fault_spec_digest_is_stable(self):
        kw = dict(FAULT_KW)
        assert scenario_digest(s3_policy(), kw) == scenario_digest(
            s3_policy(), dict(kw)
        )

    def test_digest_sensitive_to_recovery_knobs(self):
        kw = dict(n_hosts=4, seed=1)
        base = scenario_digest(s3_policy(), kw)
        with_faults = scenario_digest(
            s3_policy(),
            dict(kw, fault_model=FaultModel(
                wake_failure_rate=0.1, repair=RepairModel(mttr_s=3600.0)
            )),
        )
        other_mttr = scenario_digest(
            s3_policy(),
            dict(kw, fault_model=FaultModel(
                wake_failure_rate=0.1, repair=RepairModel(mttr_s=7200.0)
            )),
        )
        assert base != with_faults
        assert with_faults != other_mttr

    def test_digest_sensitive_to_chaos_schedule(self):
        kw = dict(n_hosts=4, seed=1)
        a = scenario_digest(
            s3_policy(),
            dict(kw, fault_model=FaultModel(
                wake_failure_rate=0.1, chaos=burst_window(0.0, 100.0, 0.5)
            )),
        )
        b = scenario_digest(
            s3_policy(),
            dict(kw, fault_model=FaultModel(
                wake_failure_rate=0.1, chaos=burst_window(0.0, 200.0, 0.5)
            )),
        )
        assert a != b
