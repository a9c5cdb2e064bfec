"""Unit + behavioural tests for wake-failure injection and resilience."""

import pytest

from repro.core import ManagerConfig, PowerAwareManager
from repro.datacenter import Cluster, FaultInjector, FaultModel, Host, HostNotActive, VM
from repro.migration import MigrationEngine
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace, StepTrace

from .test_telemetry_sampler import tick


class TestFaultModel:
    def test_defaults_inert(self):
        m = FaultModel()
        assert m.wake_failure_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(wake_failure_rate=1.0)
        with pytest.raises(ValueError):
            FaultModel(wake_failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(permanent_fraction=1.5)

    def test_injector_deterministic_per_host(self):
        model = FaultModel(wake_failure_rate=0.5)
        a = FaultInjector(model, seed=1, host_name="host-000")
        b = FaultInjector(model, seed=1, host_name="host-000")
        draws_a = [a.draw_wake_failure() for _ in range(20)]
        draws_b = [b.draw_wake_failure() for _ in range(20)]
        assert draws_a == draws_b

    def test_injector_differs_across_hosts(self):
        model = FaultModel(wake_failure_rate=0.5)
        a = FaultInjector(model, seed=1, host_name="host-000")
        b = FaultInjector(model, seed=1, host_name="host-001")
        draws_a = [a.draw_wake_failure() for _ in range(50)]
        draws_b = [b.draw_wake_failure() for _ in range(50)]
        assert draws_a != draws_b

    def test_zero_rate_never_fails(self):
        injector = FaultInjector(FaultModel(), seed=0, host_name="h")
        assert not any(injector.draw_wake_failure() for _ in range(100))


class TestHostWakeFailures:
    def make_parked_host(self, rate, permanent=0.0, seed=0):
        env = Environment()
        host = Host(
            env,
            "host-000",
            PROTOTYPE_BLADE,
            initial_state=PowerState.SLEEP,
            faults=FaultModel(wake_failure_rate=rate, permanent_fraction=permanent),
            fault_seed=seed,
        )
        return env, host

    def test_certainish_failure_leaves_host_parked(self):
        env, host = self.make_parked_host(rate=0.99)
        proc = env.process(host.wake())
        result = env.run(until=proc)
        assert result is PowerState.SLEEP
        assert host.state is PowerState.SLEEP
        assert host.wake_failures == 1

    def test_failed_wake_still_costs_time_and_energy(self):
        env, host = self.make_parked_host(rate=0.99)
        spec = PROTOTYPE_BLADE.transition(PowerState.SLEEP, PowerState.ACTIVE)
        proc = env.process(host.wake())
        env.run(until=proc)
        assert env.now == pytest.approx(spec.latency_s)
        assert host.energy_j() >= spec.energy_j * 0.99

    def test_retry_can_succeed(self):
        # With a 50% rate some retry eventually lands (seeded, so stable).
        env, host = self.make_parked_host(rate=0.5, seed=3)

        def retry_loop(env):
            for _ in range(20):
                result = yield env.process(host.wake())
                if result is PowerState.ACTIVE:
                    return True
            return False

        proc = env.process(retry_loop(env))
        assert env.run(until=proc)
        assert host.is_active

    def test_permanent_failure_marks_out_of_service(self):
        env, host = self.make_parked_host(rate=0.99, permanent=1.0)
        proc = env.process(host.wake())
        env.run(until=proc)
        assert host.out_of_service
        with pytest.raises(HostNotActive):
            host.wake()

    def test_failed_transitions_counted_separately(self):
        env, host = self.make_parked_host(rate=0.99)
        proc = env.process(host.wake())
        env.run(until=proc)
        key = (PowerState.SLEEP, PowerState.ACTIVE)
        assert host.machine.failed_transitions[key] == 1
        assert host.machine.transition_counts[key] == 0


class TestManagerResilience:
    def test_manager_rides_through_wake_failures(self):
        env = Environment()
        faults = FaultModel(wake_failure_rate=0.5)
        cluster = Cluster.homogeneous(
            env, PROTOTYPE_BLADE, 4, cores=16.0, mem_gb=128.0,
            faults=faults, fault_seed=11,
        )
        engine = MigrationEngine(env)
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, watchdog_period_s=60)
        manager = PowerAwareManager(env, cluster, engine, cfg)
        trace = StepTrace([(0.0, 0.1), (2 * 3600.0, 1.0)])
        for i in range(4):
            cluster.add_vm(
                VM("vm-{}".format(i), vcpus=10, mem_gb=16, trace=trace),
                cluster.hosts[i],
            )
        manager.start()
        env.run(until=6 * 3600)
        # Demand surge eventually gets served despite failed wake attempts:
        # capacity recovered and shortfall cleared by simulation end.
        assert cluster.active_capacity_cores() >= 40.0
        shortfall, _ = tick(cluster)
        assert shortfall == 0.0

    def test_out_of_service_hosts_not_retried(self):
        env = Environment()
        faults = FaultModel(wake_failure_rate=0.99, permanent_fraction=1.0)
        cluster = Cluster.homogeneous(
            env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=128.0,
            faults=faults, fault_seed=5,
        )
        engine = MigrationEngine(env)
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, watchdog_period_s=60)
        manager = PowerAwareManager(env, cluster, engine, cfg)
        trace = StepTrace([(0.0, 0.05), (2 * 3600.0, 0.9)])
        for i in range(3):
            cluster.add_vm(
                VM("vm-{}".format(i), vcpus=10, mem_gb=16, trace=trace),
                cluster.hosts[i],
            )
        manager.start()
        env.run(until=8 * 3600)
        # Bricked hosts are excluded from the wake pool, so the manager
        # does not spin on them (and never crashes on HostNotActive).
        for host in cluster.out_of_service_hosts():
            assert host not in cluster.parked_hosts()


class TestRunnerFaultIntegration:
    def test_report_carries_fault_metrics(self):
        from repro import run_scenario, s3_policy

        result = run_scenario(
            s3_policy(),
            n_hosts=6,
            n_vms=18,
            horizon_s=12 * 3600,
            seed=4,
            fault_model=FaultModel(wake_failure_rate=0.3),
        )
        assert "wake_failures" in result.report.extra
        assert "hosts_out_of_service" in result.report.extra
