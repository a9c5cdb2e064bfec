"""Unit tests for the DRM-style load balancer."""

import pytest

from repro.datacenter import Cluster, VM
from repro.placement import BalanceConfig, LoadBalancer, PlanningView
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace


@pytest.fixture
def cluster():
    env = Environment()
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=128.0)


def add_vm(cluster, host, name, vcpus=4, level=1.0):
    vm = VM(name, vcpus=vcpus, mem_gb=8, trace=FlatTrace(level))
    cluster.add_vm(vm, host)
    return vm


class TestBalanceConfig:
    def test_defaults_valid(self):
        BalanceConfig()

    def test_ordering_constraint(self):
        with pytest.raises(ValueError):
            BalanceConfig(high_watermark=0.5, dst_ceiling=0.8)

    def test_negative_improvement_rejected(self):
        with pytest.raises(ValueError):
            BalanceConfig(min_improvement=-0.1)


class TestRecommendations:
    def test_no_moves_when_balanced(self, cluster):
        for i, host in enumerate(cluster.hosts):
            add_vm(cluster, host, "vm-{}".format(i), vcpus=4, level=0.5)
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert moves == []

    def test_overloaded_host_sheds_load(self, cluster):
        src = cluster.hosts[0]
        for i in range(4):
            add_vm(cluster, src, "hot-{}".format(i), vcpus=4, level=1.0)  # 16 cores
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert moves
        assert all(m.src is src for m in moves)
        assert all(m.dst is not src for m in moves)

    def test_respects_dst_ceiling(self, cluster):
        src = cluster.hosts[0]
        for i in range(4):
            add_vm(cluster, src, "hot-{}".format(i), vcpus=4, level=1.0)
        # Pre-load both destinations close to the ceiling.
        add_vm(cluster, cluster.hosts[1], "warm-1", vcpus=8, level=1.0)
        add_vm(cluster, cluster.hosts[2], "warm-2", vcpus=8, level=1.0)
        cfg = BalanceConfig(dst_ceiling=0.6, high_watermark=0.85)
        moves = LoadBalancer(cfg).moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        # 8/16 = 0.5 already; adding a 4-core VM → 0.75 > 0.6 ceiling.
        assert moves == []

    def test_max_moves_per_round(self, cluster):
        src = cluster.hosts[0]
        for i in range(8):
            add_vm(cluster, src, "hot-{}".format(i), vcpus=2, level=1.0)
        cfg = BalanceConfig(max_moves_per_round=2)
        moves = LoadBalancer(cfg).moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert len(moves) <= 2

    def test_skips_migrating_vms(self, cluster):
        src = cluster.hosts[0]
        vms = [add_vm(cluster, src, "hot-{}".format(i), vcpus=4) for i in range(4)]
        for vm in vms:
            vm.migrating = True
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert moves == []

    def test_skips_evacuating_destinations(self, cluster):
        src = cluster.hosts[0]
        for i in range(4):
            add_vm(cluster, src, "hot-{}".format(i), vcpus=4)
        cluster.hosts[1].evacuating = True
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert all(m.dst is cluster.hosts[2] for m in moves)

    def test_below_watermark_no_action(self, cluster):
        src = cluster.hosts[0]
        add_vm(cluster, src, "mild", vcpus=8, level=1.0)  # util 0.5
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert moves == []

    def test_planning_accounts_for_chosen_moves(self, cluster):
        # After moving enough VMs off, the source drops below watermark
        # and no further moves are proposed.
        src = cluster.hosts[0]
        for i in range(4):
            add_vm(cluster, src, "hot-{}".format(i), vcpus=4, level=1.0)
        cfg = BalanceConfig(max_moves_per_round=10)
        moves = LoadBalancer(cfg).moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        # Moving one VM: 12/16 = 0.75 < 0.85 — one move suffices.
        assert len(moves) == 1
