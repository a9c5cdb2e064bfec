"""Unit tests for the cluster sampler and report builder."""

import pytest

from repro.datacenter import Cluster, VM
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import ClusterSampler, SimReport, build_report
from repro.workload import FlatTrace, StepTrace


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=8.0, mem_gb=64.0)


class TestSampler:
    def test_series_lengths_match_sample_count(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        assert sampler.samples == 10
        for name in ClusterSampler.SERIES:
            assert len(sampler.series[name]) == 10

    def test_demand_series_tracks_trace(self, env, cluster):
        vm = VM("vm", vcpus=4, mem_gb=8, trace=StepTrace([(0.0, 0.25), (300.0, 1.0)]))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        demand = sampler.series["demand_cores"]
        assert demand.values[0] == pytest.approx(1.0)
        assert demand.values[-1] == pytest.approx(4.0)

    def test_power_series_reflects_utilization(self, env, cluster):
        vm = VM("vm", vcpus=8, mem_gb=8, trace=FlatTrace(1.0))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=120)
        expected = PROTOTYPE_BLADE.peak_w + PROTOTYPE_BLADE.idle_w
        assert sampler.series["power_w"].values[-1] == pytest.approx(expected)

    def test_shortfall_accounting(self, env):
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 1, cores=2.0, mem_gb=64.0)
        vm = VM("vm", vcpus=4, mem_gb=8, trace=FlatTrace(1.0))  # 4 of 2 cores
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        assert sampler.violation_fraction == pytest.approx(0.5)
        assert sampler.violation_time_fraction == pytest.approx(1.0)

    def test_no_violation_when_capacity_sufficient(self, env, cluster):
        vm = VM("vm", vcpus=4, mem_gb=8, trace=FlatTrace(0.5))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        assert sampler.violation_fraction == 0.0
        assert sampler.violation_time_fraction == 0.0

    def test_host_counts_series(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=10.0)
        sampler.start()

        def park_one(env):
            yield env.timeout(25)
            yield env.process(cluster.hosts[1].park(PowerState.SLEEP))

        env.process(park_one(env))
        env.run(until=100)
        active = sampler.series["active_hosts"]
        parked = sampler.series["parked_hosts"]
        assert active.values[0] == 2
        assert active.values[-1] == 1
        assert parked.values[-1] == 1
        assert sampler.series["transitioning_hosts"].max() >= 1

    def test_negative_demand_inside_a_chunk_raises_at_its_tick(self, env, cluster):
        # The first tick precomputes demand for the next 128 ticks; a trace
        # that turns negative inside that chunk must not fail the build at
        # 0 s.  It raises from the scalar read at the first negative tick.
        class TurnsNegative:
            def at(self, t):
                return 0.5 if t < 600.0 else -0.2

        cluster.add_vm(VM("bad", vcpus=2, mem_gb=8, trace=TurnsNegative()), cluster.hosts[0])
        cluster.add_vm(VM("ok", vcpus=2, mem_gb=8, trace=FlatTrace(0.5)), cluster.hosts[1])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        with pytest.raises(ValueError, match="bad returned negative demand -0.2"):
            env.run(until=1200)
        assert env.now == 600.0
        assert sampler.samples == 10
        assert list(sampler.series["demand_cores"].values) == [2.0] * 10

    def test_double_start_rejected(self, env, cluster):
        sampler = ClusterSampler(env, cluster)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()

    def test_epoch_validation(self, env, cluster):
        with pytest.raises(ValueError):
            ClusterSampler(env, cluster, epoch_s=0)


class TestBuildReport:
    def test_report_fields(self, env, cluster):
        vm = VM("vm", vcpus=4, mem_gb=8, trace=FlatTrace(0.5))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=3600)
        report = build_report("TestPolicy", cluster, sampler, horizon_s=3600.0)
        assert report.policy == "TestPolicy"
        assert report.energy_kwh > 0
        assert report.mean_active_hosts == pytest.approx(2.0)
        assert report.migrations == 0
        assert report.violation_fraction == 0.0

    def test_transition_counting(self, env, cluster):
        def cycle(env):
            host = cluster.hosts[0]
            yield env.process(host.park(PowerState.SLEEP))
            yield env.process(host.wake())

        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.process(cycle(env))
        env.run(until=3600)
        report = build_report("p", cluster, sampler, horizon_s=3600.0)
        assert report.park_transitions == 1
        assert report.wake_transitions == 1
        assert report.transitions_per_host_per_day == pytest.approx(
            2 / 2 / (3600 / 86400)
        )

    def test_normalized_energy(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=3600)
        report = build_report("p", cluster, sampler, horizon_s=3600.0)
        assert report.normalized_energy(report.energy_kwh) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            report.normalized_energy(0.0)

    def test_header_and_row_align(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        report = build_report("p", cluster, sampler, horizon_s=600.0)
        assert len(SimReport.header().split()) == len(report.row().split())
