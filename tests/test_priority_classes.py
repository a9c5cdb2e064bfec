"""Tests for service classes: strict-priority delivery and accounting."""

import pytest

from repro.datacenter import Cluster, Host, Priority, VM
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import ClusterSampler
from repro.workload import FlatTrace, FleetSpec, build_fleet

from .test_telemetry_sampler import tick


def make_vm(name, vcpus, level, priority, mem_gb=8):
    return VM(
        name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level), priority=priority
    )


class TestPriorityEnum:
    def test_ordering(self):
        assert Priority.GOLD < Priority.SILVER < Priority.BRONZE

    def test_default_is_bronze(self):
        vm = VM("v", vcpus=1, mem_gb=4, trace=FlatTrace(0.5))
        assert vm.priority is Priority.BRONZE

    def test_accepts_int(self):
        vm = VM("v", vcpus=1, mem_gb=4, trace=FlatTrace(0.5), priority=0)
        assert vm.priority is Priority.GOLD


class TestShortfallByClass:
    @pytest.fixture
    def cluster(self):
        env = Environment()
        return Cluster(env, [Host(env, "h0", PROTOTYPE_BLADE, cores=8.0, mem_gb=128.0)])

    @staticmethod
    def place(cluster, *vms):
        for vm in vms:
            cluster.add_vm(vm, cluster.hosts[0])

    def test_no_shortfall_when_capacity_sufficient(self, cluster):
        self.place(cluster, make_vm("g", 4, 0.5, Priority.GOLD),
                   make_vm("b", 4, 0.5, Priority.BRONZE))
        _, shortfall = tick(cluster)
        assert all(v == 0.0 for v in shortfall.values())

    def test_bronze_absorbs_overload_first(self, cluster):
        self.place(cluster, make_vm("g", 6, 1.0, Priority.GOLD),  # 6 cores
                   make_vm("b", 6, 1.0, Priority.BRONZE))  # 6 cores, cap 8
        _, shortfall = tick(cluster)
        assert shortfall[Priority.GOLD] == 0.0
        assert shortfall[Priority.BRONZE] == pytest.approx(4.0)

    def test_gold_only_suffers_after_lower_classes_starve(self, cluster):
        self.place(cluster, make_vm("g", 12, 1.0, Priority.GOLD),  # 12 of 8 cores
                   make_vm("b", 4, 1.0, Priority.BRONZE))
        _, shortfall = tick(cluster)
        assert shortfall[Priority.GOLD] == pytest.approx(4.0)
        assert shortfall[Priority.BRONZE] == pytest.approx(4.0)

    def test_silver_between_gold_and_bronze(self, cluster):
        self.place(cluster, make_vm("g", 4, 1.0, Priority.GOLD),
                   make_vm("s", 4, 1.0, Priority.SILVER),
                   make_vm("b", 4, 1.0, Priority.BRONZE))  # total 12 of 8
        _, shortfall = tick(cluster)
        assert shortfall[Priority.GOLD] == 0.0
        assert shortfall[Priority.SILVER] == 0.0
        assert shortfall[Priority.BRONZE] == pytest.approx(4.0)

    def test_migration_tax_served_before_everything(self, cluster):
        self.place(cluster, make_vm("g", 8, 1.0, Priority.GOLD))
        cluster.hosts[0].migration_tax_cores = 2.0
        _, shortfall = tick(cluster)
        assert shortfall[Priority.GOLD] == pytest.approx(2.0)

    def test_parked_host_starves_all_classes(self, cluster):
        self.place(cluster, make_vm("g", 4, 0.5, Priority.GOLD))
        from repro.power import PowerState

        cluster.hosts[0].machine._state = PowerState.SLEEP
        _, shortfall = tick(cluster)
        assert shortfall[Priority.GOLD] == pytest.approx(2.0)

    def test_class_totals_match_aggregate_shortfall(self, cluster):
        self.place(cluster, make_vm("g", 6, 1.0, Priority.GOLD),
                   make_vm("s", 6, 1.0, Priority.SILVER),
                   make_vm("b", 6, 1.0, Priority.BRONZE))
        aggregate, by_class = tick(cluster)
        assert sum(by_class.values()) == pytest.approx(aggregate)


class TestSamplerClassAccounting:
    def test_per_class_series_and_fractions(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 1, cores=8.0, mem_gb=128.0)
        cluster.add_vm(
            make_vm("g", 6, 1.0, Priority.GOLD), cluster.hosts[0]
        )
        cluster.add_vm(
            make_vm("b", 6, 1.0, Priority.BRONZE), cluster.hosts[0]
        )
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        fractions = sampler.violation_fraction_by_class()
        assert fractions[Priority.GOLD] == 0.0
        assert fractions[Priority.BRONZE] == pytest.approx(4.0 / 6.0)
        assert sampler.series["shortfall_bronze"].values[-1] == pytest.approx(4.0)
        assert sampler.series["shortfall_gold"].values[-1] == 0.0

    def test_empty_class_reports_zero(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 1)
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=120)
        fractions = sampler.violation_fraction_by_class()
        assert all(v == 0.0 for v in fractions.values())


class TestFleetPriorities:
    def test_fleet_draws_priority_mix(self):
        spec = FleetSpec(n_vms=200, horizon_s=3600.0)
        fleet = build_fleet(spec, seed=0)
        counts = {p: 0 for p in Priority}
        for vm in fleet:
            counts[vm.priority] += 1
        # Default mix 20/30/50 — allow generous sampling noise.
        assert 20 <= counts[Priority.GOLD] <= 70
        assert counts[Priority.BRONZE] > counts[Priority.GOLD]

    def test_custom_weights(self):
        spec = FleetSpec(
            n_vms=50,
            horizon_s=3600.0,
            priority_weights={"gold": 1.0},
        )
        fleet = build_fleet(spec, seed=0)
        assert all(vm.priority is Priority.GOLD for vm in fleet)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(priority_weights={"platinum": 1.0})

    def test_report_extra_carries_class_violations(self):
        from repro import run_scenario, s3_policy

        result = run_scenario(
            s3_policy(), n_hosts=4, n_vms=12, horizon_s=2 * 3600, seed=2
        )
        for key in ("violation_gold", "violation_silver", "violation_bronze"):
            assert key in result.report.extra
