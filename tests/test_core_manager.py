"""Behavioural tests for the power-aware manager."""

import pytest

from repro.core import ManagerConfig, PowerAwareManager
from repro.datacenter import Cluster, Host, VM
from repro.migration import MigrationEngine
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TraceBuffer
from repro.trace_events import ManagerDecision
from repro.workload import FlatTrace, StepTrace


def build(n_hosts=4, config=None, cores=16.0, mem_gb=128.0, trace=None):
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, n_hosts, cores=cores, mem_gb=mem_gb)
    engine = MigrationEngine(env)
    manager = PowerAwareManager(
        env, cluster, engine, config or ManagerConfig(), trace=trace
    )
    return env, cluster, engine, manager


def park_times(trace):
    return [e.t for e in trace.events
            if isinstance(e, ManagerDecision) and e.action == "park"]


def flat_vm(name, vcpus=2, level=0.5, mem_gb=8):
    return VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))


class TestConsolidationAndParking:
    def test_surplus_hosts_get_parked(self):
        cfg = ManagerConfig(period_s=300, park_delay_rounds=1, min_active_hosts=1)
        env, cluster, engine, manager = build(config=cfg)
        cluster.add_vm(flat_vm("only", vcpus=4, level=0.5), cluster.hosts[0])
        manager.start()
        env.run(until=2 * 3600)
        assert len(cluster.parked_hosts()) >= 2
        assert manager.log.parks_completed >= 2

    def test_park_state_from_config(self):
        cfg = ManagerConfig(park_state=PowerState.OFF, park_delay_rounds=0)
        env, cluster, engine, manager = build(config=cfg)
        cluster.add_vm(flat_vm("only"), cluster.hosts[0])
        manager.start()
        env.run(until=2 * 3600)
        parked_states = {h.state for h in cluster.parked_hosts()}
        assert parked_states == {PowerState.OFF}

    def test_min_active_hosts_respected(self):
        cfg = ManagerConfig(park_delay_rounds=0, min_active_hosts=2)
        env, cluster, engine, manager = build(config=cfg)
        # No VMs at all: the floor is the only thing keeping hosts up.
        manager.start()
        env.run(until=4 * 3600)
        assert len(cluster.active_hosts()) >= 2

    def test_hysteresis_delays_parking(self):
        eager = ManagerConfig(period_s=300, park_delay_rounds=0)
        lazy = ManagerConfig(period_s=300, park_delay_rounds=6)

        def first_park_time(cfg):
            trace = TraceBuffer(label="hysteresis")
            env, cluster, engine, manager = build(config=cfg, trace=trace)
            cluster.add_vm(flat_vm("only"), cluster.hosts[0])
            manager.start()
            env.run(until=3 * 3600)
            parks = park_times(trace)
            return parks[0] if parks else float("inf")

        assert first_park_time(eager) < first_park_time(lazy)

    def test_no_parking_when_power_mgmt_disabled(self):
        cfg = ManagerConfig(enable_power_mgmt=False)
        trace = TraceBuffer(label="no-pm")
        env, cluster, engine, manager = build(config=cfg, trace=trace)
        cluster.add_vm(flat_vm("only"), cluster.hosts[0])
        manager.start()
        env.run(until=4 * 3600)
        assert len(cluster.parked_hosts()) == 0
        assert park_times(trace) == []

    def test_evacuation_migrates_before_parking(self):
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, min_active_hosts=1)
        env, cluster, engine, manager = build(config=cfg)
        # Two lightly loaded hosts: one should evacuate into the other.
        cluster.add_vm(flat_vm("a", vcpus=2, level=0.4), cluster.hosts[0])
        cluster.add_vm(flat_vm("b", vcpus=2, level=0.4), cluster.hosts[1])
        manager.start()
        env.run(until=2 * 3600)
        assert engine.completed >= 1
        assert len(cluster.parked_hosts()) >= 2
        # All VMs still placed and running somewhere active.
        for vm in cluster.vms:
            assert vm.host.is_active


class TestWakeOnDemand:
    def test_demand_step_wakes_hosts(self):
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, watchdog_period_s=60)
        env, cluster, engine, manager = build(config=cfg)
        # Low demand for 2h, then a surge that needs >1 host.
        trace = StepTrace([(0.0, 0.1), (2 * 3600.0, 1.0)])
        for i in range(4):
            cluster.add_vm(
                VM("vm-{}".format(i), vcpus=8, mem_gb=16, trace=trace),
                cluster.hosts[i % 4],
            )
        manager.start()
        env.run(until=1.9 * 3600)
        parked_before = len(cluster.parked_hosts())
        assert parked_before >= 1
        env.run(until=3 * 3600)
        assert len(cluster.parked_hosts()) < parked_before
        assert manager.log.wakes_requested >= 1

    def test_reactive_wake_logged_on_shortfall(self):
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, watchdog_period_s=30)
        env, cluster, engine, manager = build(config=cfg)
        trace = StepTrace([(0.0, 0.05), (2 * 3600.0, 1.0)])
        for i in range(4):
            cluster.add_vm(
                VM("vm-{}".format(i), vcpus=12, mem_gb=16, trace=trace),
                cluster.hosts[i % 4],
            )
        manager.start()
        env.run(until=4 * 3600)
        assert manager.log.reactive_wakes >= 1


class TestAdmission:
    def test_simple_admission_places_immediately(self):
        env, cluster, engine, manager = build()
        vm = flat_vm("new")
        assert manager.admit(vm)
        assert vm.placed
        assert manager.log.admissions == 1

    def test_admission_rejected_without_power_mgmt_when_full(self):
        cfg = ManagerConfig(enable_power_mgmt=False)
        env, cluster, engine, manager = build(n_hosts=1, config=cfg, mem_gb=16.0)
        assert manager.admit(flat_vm("a", mem_gb=12))
        assert not manager.admit(flat_vm("b", mem_gb=12))
        assert manager.log.admissions_rejected == 1

    def test_admission_queues_and_wakes_parked_host(self):
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, watchdog_period_s=30)
        env, cluster, engine, manager = build(n_hosts=2, config=cfg, mem_gb=32.0)
        cluster.add_vm(flat_vm("resident", mem_gb=24), cluster.hosts[0])
        manager.start()
        env.run(until=3600)  # second host gets parked
        assert len(cluster.parked_hosts()) == 1
        big = flat_vm("big", mem_gb=24)
        assert manager.admit(big)
        assert manager.pending_admissions == 1
        env.run(until=2 * 3600)
        assert big.placed
        assert manager.pending_admissions == 0
        assert manager.log.admission_waits_s
        assert manager.log.mean_admission_wait_s() > 0

    def test_admission_rejected_when_nothing_in_reserve(self):
        cfg = ManagerConfig()
        env, cluster, engine, manager = build(n_hosts=1, config=cfg, mem_gb=16.0)
        cluster.add_vm(flat_vm("resident", mem_gb=12), cluster.hosts[0])
        assert not manager.admit(flat_vm("big", mem_gb=12))

    def test_retire_pending_vm(self):
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0)
        env, cluster, engine, manager = build(n_hosts=2, config=cfg, mem_gb=32.0)
        cluster.add_vm(flat_vm("resident", mem_gb=24), cluster.hosts[0])
        manager.start()
        env.run(until=3600)
        vm = flat_vm("fleeting", mem_gb=24)
        manager.admit(vm)
        assert manager.pending_admissions == 1
        manager.retire(vm)
        assert manager.pending_admissions == 0

    def test_retire_placed_vm(self):
        env, cluster, engine, manager = build()
        vm = flat_vm("v")
        manager.admit(vm)
        manager.retire(vm)
        assert vm.host is None
        assert len(cluster.vms) == 0


class TestHybridParkStates:
    def test_warm_pool_then_deep(self):
        cfg = ManagerConfig(
            period_s=300,
            park_delay_rounds=0,
            park_state=PowerState.SLEEP,
            deep_park_state=PowerState.OFF,
            warm_pool_hosts=1,
            max_parks_per_round=1,
        )
        env, cluster, engine, manager = build(n_hosts=4, config=cfg)
        cluster.add_vm(flat_vm("only"), cluster.hosts[0])
        manager.start()
        env.run(until=6 * 3600)
        states = sorted(h.state.value for h in cluster.parked_hosts())
        assert "sleep" in states
        assert "off" in states
        sleeping = [h for h in cluster.parked_hosts() if h.state is PowerState.SLEEP]
        assert len(sleeping) == 1


class TestBalancingIntegration:
    def test_overloaded_host_rebalanced(self):
        cfg = ManagerConfig(enable_power_mgmt=False, period_s=300)
        env, cluster, engine, manager = build(config=cfg)
        for i in range(4):
            cluster.add_vm(flat_vm("hot-{}".format(i), vcpus=4, level=1.0), cluster.hosts[0])
        manager.start()
        env.run(until=3600)
        assert manager.log.balancer_moves >= 1
        assert engine.completed >= 1
        assert cluster.hosts[0].demand_cores(env.now) < 16.0

    def test_balancing_can_be_disabled(self):
        cfg = ManagerConfig(enable_power_mgmt=False, enable_balancing=False)
        env, cluster, engine, manager = build(config=cfg)
        for i in range(4):
            cluster.add_vm(flat_vm("hot-{}".format(i), vcpus=4, level=1.0), cluster.hosts[0])
        manager.start()
        env.run(until=3600)
        assert manager.log.balancer_moves == 0


class TestLifecycle:
    def test_double_start_rejected(self):
        env, cluster, engine, manager = build()
        manager.start()
        with pytest.raises(RuntimeError):
            manager.start()


class TestPowerCap:
    def test_cap_capacity_cores(self):
        cfg = ManagerConfig(power_cap_w=1000.0)  # peak 315 W -> 3 hosts
        env, cluster, engine, manager = build(n_hosts=6, config=cfg)
        assert manager._cap_capacity_cores() == pytest.approx(3 * 16.0)

    def test_no_cap_is_infinite(self):
        env, cluster, engine, manager = build()
        assert manager._cap_capacity_cores() == float("inf")

    def test_cap_never_below_min_active(self):
        cfg = ManagerConfig(power_cap_w=10.0, min_active_hosts=2)
        env, cluster, engine, manager = build(config=cfg)
        assert manager._cap_capacity_cores() == pytest.approx(2 * 16.0)

    def test_cap_forces_shrink_despite_demand(self):
        # Demand wants all 4 hosts; the cap allows only 2.
        cap = 2 * 315.0 + 50.0
        cfg = ManagerConfig(
            period_s=300, park_delay_rounds=0, power_cap_w=cap, watchdog_period_s=60
        )
        env, cluster, engine, manager = build(config=cfg)
        for i in range(4):
            cluster.add_vm(
                flat_vm("vm-{}".format(i), vcpus=8, level=0.8), cluster.hosts[i]
            )
        manager.start()
        env.run(until=4 * 3600)
        assert len(cluster.active_hosts()) <= 2
        # The cluster runs hot/short, but the budget holds.
        assert cluster.power_w() <= cap + 1e-6

    def test_wakes_deferred_at_cap(self):
        cap = 2 * 315.0 + 50.0
        cfg = ManagerConfig(
            period_s=300, park_delay_rounds=0, power_cap_w=cap, watchdog_period_s=60
        )
        env, cluster, engine, manager = build(config=cfg)
        from repro.workload import StepTrace as _Step
        from repro.datacenter import VM as _VM

        trace = _Step([(0.0, 0.1), (2 * 3600.0, 1.0)])
        for i in range(4):
            cluster.add_vm(
                _VM("vm-{}".format(i), vcpus=8, mem_gb=16, trace=trace),
                cluster.hosts[i],
            )
        manager.start()
        env.run(until=6 * 3600)
        # Demand surge cannot be served beyond the cap; no more than the
        # allowed hosts ever come up after consolidation.
        assert len(cluster.active_hosts()) <= 2

    def test_one_pass_counts_the_wakes_it_dispatched(self):
        # Two active hosts and two asleep; the cap leaves room for one
        # more host at peak, not two.  A two-host shortfall dispatches the
        # first wake, whose process starts later in the instant, so the
        # second projection must count that host as well as the moving
        # ones: one wake, one deferral.
        env = Environment()
        hosts = [
            Host(env, "host-{:03d}".format(i), PROTOTYPE_BLADE,
                 initial_state=PowerState.ACTIVE if i < 2 else PowerState.SLEEP)
            for i in range(4)
        ]
        cluster = Cluster(env, hosts)
        peak = PROTOTYPE_BLADE.peak_w
        cfg = ManagerConfig(power_cap_w=cluster.power_w() + 1.5 * peak)
        trace = TraceBuffer(label="cap")
        manager = PowerAwareManager(
            env, cluster, MigrationEngine(env), cfg, trace=trace
        )
        manager._grow(2 * hosts[0].cores, reactive=True)
        actions = [
            (e.action, e.host) for e in trace.events
            if isinstance(e, ManagerDecision)
        ]
        assert actions == [("wake", "host-002"), ("cap-defer", "host-003")]
        assert [h.name for h in manager.arbiter.unstarted_wakes()] == ["host-002"]
        env.run(until=3600.0)
        assert manager.arbiter.unstarted_wakes() == []
        assert [h.name for h in cluster.active_hosts()] == [
            "host-000", "host-001", "host-002"
        ]
        assert manager.log.cap_deferrals == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            ManagerConfig(power_cap_w=0.0)


class TestAdmissionTimeout:
    def test_timed_out_admission_dropped(self):
        cfg = ManagerConfig(
            period_s=300,
            park_delay_rounds=0,
            watchdog_period_s=60,
            admission_timeout_s=120.0,
        )
        env, cluster, engine, manager = build(n_hosts=1, config=cfg, mem_gb=32.0)
        cluster.add_vm(flat_vm("resident", mem_gb=24), cluster.hosts[0])
        manager.start()
        # Nothing parked, nothing can ever fit: force-queue directly.
        vm = flat_vm("too-big", mem_gb=24)
        manager._pending.append((vm, env.now))
        env.run(until=3600)
        assert manager.pending_admissions == 0
        assert manager.log.admissions_timed_out == 1
        assert not vm.placed

    def test_admission_served_before_timeout_not_dropped(self):
        cfg = ManagerConfig(
            period_s=300,
            park_delay_rounds=0,
            watchdog_period_s=30,
            admission_timeout_s=1800.0,
        )
        env, cluster, engine, manager = build(n_hosts=2, config=cfg, mem_gb=32.0)
        cluster.add_vm(flat_vm("resident", mem_gb=24), cluster.hosts[0])
        manager.start()
        env.run(until=3600)  # host-001 parks
        vm = flat_vm("late", mem_gb=24)
        assert manager.admit(vm)
        env.run(until=2 * 3600)
        assert vm.placed
        assert manager.log.admissions_timed_out == 0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            ManagerConfig(admission_timeout_s=0.0)

    def test_retiring_a_timed_out_vm_does_not_crash(self):
        """Regression: churn departure after an admission timeout.

        A queued VM dropped by ``admission_timeout_s`` is unknown to both
        the pending list and the cluster; its churn-generated departure
        used to reach ``cluster.remove_vm`` and raise KeyError, killing
        the simulation.
        """
        cfg = ManagerConfig(
            period_s=300,
            park_delay_rounds=0,
            watchdog_period_s=60,
            admission_timeout_s=120.0,
        )
        env, cluster, engine, manager = build(n_hosts=1, config=cfg, mem_gb=32.0)
        cluster.add_vm(flat_vm("resident", mem_gb=24), cluster.hosts[0])
        manager.start()
        vm = flat_vm("too-big", mem_gb=24)
        manager._pending.append((vm, env.now))
        env.run(until=3600)
        assert manager.log.admissions_timed_out == 1
        # The churn generator has no idea the admission timed out; its
        # departure event still fires.  This must be a counted no-op.
        manager.retire(vm)
        assert manager.log.retires_unknown == 1

    def test_churn_with_timeouts_survives_end_to_end(self):
        """End-to-end shape of the same regression through run_scenario.

        Churn + a tight admission timeout + parked capacity: arrivals
        queue behind a wake, time out before it lands, and their later
        departures must not crash the run.
        """
        from repro.core import run_scenario, s3_policy
        from repro.workload import FleetSpec

        config = s3_policy().with_overrides(admission_timeout_s=30.0)
        result = run_scenario(
            config,
            n_hosts=4,
            horizon_s=24 * 3600.0,
            seed=11,
            fleet_spec=FleetSpec(n_vms=8, horizon_s=24 * 3600.0,
                                 shared_fraction=0.4),
            churn_rate_per_h=8.0,
            churn_lifetime_s=2 * 3600.0,
        )
        extra = result.report.extra
        # The path was actually exercised: at least one admission timed
        # out and its departure arrived after the drop.
        assert extra["retires_unknown"] >= 1.0
        assert result.manager.log.admissions_timed_out >= 1
