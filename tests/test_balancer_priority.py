"""Tests for priority-aware balancing: who gets migrated."""

import pytest

from repro.datacenter import Cluster, Priority, VM
from repro.placement import BalanceConfig, LoadBalancer, PlanningView
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace


@pytest.fixture
def cluster():
    env = Environment()
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=128.0)


def add_vm(cluster, host, name, priority, vcpus=4, level=1.0):
    vm = VM(name, vcpus=vcpus, mem_gb=8, trace=FlatTrace(level), priority=priority)
    cluster.add_vm(vm, host)
    return vm


class TestPriorityAwareMoves:
    def test_bronze_migrated_before_gold(self, cluster):
        src = cluster.hosts[0]
        add_vm(cluster, src, "gold-1", Priority.GOLD)
        add_vm(cluster, src, "gold-2", Priority.GOLD)
        add_vm(cluster, src, "bronze-1", Priority.BRONZE)
        add_vm(cluster, src, "bronze-2", Priority.BRONZE)  # 16/16 cores
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert moves
        assert all(m.vm.priority is Priority.BRONZE for m in moves)

    def test_silver_before_gold_when_no_bronze(self, cluster):
        src = cluster.hosts[0]
        add_vm(cluster, src, "gold-1", Priority.GOLD)
        add_vm(cluster, src, "gold-2", Priority.GOLD)
        add_vm(cluster, src, "silver-1", Priority.SILVER)
        add_vm(cluster, src, "silver-2", Priority.SILVER)
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert moves
        assert moves[0].vm.priority is Priority.SILVER

    def test_gold_moved_as_last_resort(self, cluster):
        src = cluster.hosts[0]
        for i in range(4):
            add_vm(cluster, src, "gold-{}".format(i), Priority.GOLD)
        moves = LoadBalancer().moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        # Only gold VMs exist: the balancer still relieves the overload.
        assert moves
        assert all(m.vm.priority is Priority.GOLD for m in moves)

    def test_within_class_biggest_mover_first(self, cluster):
        src = cluster.hosts[0]
        add_vm(cluster, src, "big", Priority.BRONZE, vcpus=6)
        add_vm(cluster, src, "small", Priority.BRONZE, vcpus=2)
        add_vm(cluster, src, "gold", Priority.GOLD, vcpus=8)
        moves = LoadBalancer(
            BalanceConfig(max_moves_per_round=1)
        ).moves(PlanningView.of_hosts(cluster.hosts, 0.0))
        assert moves
        assert moves[0].vm.name == "big"
