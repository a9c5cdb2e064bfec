"""Unit tests for the cluster model."""

import pytest

from repro.datacenter import Cluster, Host, VM
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace

from .test_telemetry_sampler import tick


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 4, cores=16.0, mem_gb=64.0)


def make_vm(name="vm", vcpus=2, mem_gb=8, level=0.5):
    return VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))


class TestConstruction:
    def test_homogeneous_builds_named_hosts(self, cluster):
        assert [h.name for h in cluster.hosts] == [
            "host-000",
            "host-001",
            "host-002",
            "host-003",
        ]

    def test_duplicate_host_names_rejected(self, env):
        h1 = Host(env, "same", PROTOTYPE_BLADE)
        h2 = Host(env, "same", PROTOTYPE_BLADE)
        with pytest.raises(ValueError):
            Cluster(env, [h1, h2])

    def test_empty_cluster_rejected(self, env):
        with pytest.raises(ValueError):
            Cluster(env, [])

    def test_zero_hosts_rejected(self, env):
        with pytest.raises(ValueError):
            Cluster.homogeneous(env, PROTOTYPE_BLADE, 0)


class TestVMRegistry:
    def test_add_and_remove(self, cluster):
        vm = make_vm()
        cluster.add_vm(vm, cluster.hosts[0])
        assert cluster.get_vm("vm") is vm
        assert len(cluster.vms) == 1
        cluster.remove_vm(vm)
        assert len(cluster.vms) == 0
        assert vm.host is None

    def test_duplicate_name_rejected(self, cluster):
        cluster.add_vm(make_vm("dup"), cluster.hosts[0])
        with pytest.raises(ValueError):
            cluster.add_vm(make_vm("dup"), cluster.hosts[1])

    def test_foreign_host_rejected(self, env, cluster):
        outsider = Host(env, "outsider", PROTOTYPE_BLADE)
        with pytest.raises(ValueError):
            cluster.add_vm(make_vm(), outsider)
        # Membership is by identity: a foreign host named like a member
        # is still foreign.
        impostor = Host(env, cluster.hosts[1].name, PROTOTYPE_BLADE)
        with pytest.raises(ValueError):
            cluster.add_vm(make_vm(), impostor)
        assert not impostor.vms and not cluster.has_vm("vm")

    def test_remove_unknown_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.remove_vm(make_vm())


class TestAggregates:
    def test_capacity_counts_only_active(self, env, cluster):
        assert cluster.active_capacity_cores() == 64.0
        env.process(cluster.hosts[0].park(PowerState.SLEEP))
        env.run()
        assert cluster.active_capacity_cores() == 48.0
        assert cluster.total_capacity_cores() == 64.0

    def test_committed_includes_waking(self, env, cluster):
        def scenario(env):
            yield env.process(cluster.hosts[0].park(PowerState.SLEEP))
            env.process(cluster.hosts[0].wake())
            yield env.timeout(1)  # mid-wake

        env.process(scenario(env))
        env.run(until=10)
        assert cluster.hosts[0] in cluster.waking_hosts()
        assert cluster.committed_capacity_cores() == 64.0
        assert cluster.active_capacity_cores() == 48.0

    def test_parked_hosts_view(self, env, cluster):
        env.process(cluster.hosts[1].park(PowerState.OFF))
        env.run()
        assert cluster.parked_hosts() == [cluster.hosts[1]]

    def test_demand_aggregation(self, cluster):
        cluster.add_vm(make_vm("a", vcpus=4, level=0.5), cluster.hosts[0])
        cluster.add_vm(make_vm("b", vcpus=2, level=1.0), cluster.hosts[1])
        assert cluster.demand_cores(0.0) == pytest.approx(4.0)

    def test_power_sums_hosts(self, cluster):
        expected = 4 * PROTOTYPE_BLADE.idle_w
        assert cluster.power_w() == pytest.approx(expected)

    def test_refresh_returns_total_shortfall(self, env):
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=2.0, mem_gb=64.0)
        cluster.add_vm(make_vm("a", vcpus=4, level=1.0), cluster.hosts[0])
        shortfall, _ = tick(cluster)
        assert shortfall == pytest.approx(2.0)

    def test_placeable_excludes_evacuating(self, cluster):
        cluster.hosts[2].evacuating = True
        assert cluster.hosts[2] not in cluster.placeable_hosts()
        assert cluster.hosts[2] in cluster.active_hosts()
