"""Unit tests for evacuation planning."""

import pytest

from repro.datacenter import Cluster, VM
from repro.placement import PlanningView, plan_evacuation
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace


@pytest.fixture
def cluster():
    env = Environment()
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=64.0)


def add_vm(cluster, host, name, vcpus=2, mem_gb=8, level=0.5):
    vm = VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))
    cluster.add_vm(vm, host)
    return vm


def cluster_plan(cluster, host, cpu_target=0.85):
    """``host``'s plan on the cluster's view, which holds ``host`` too."""
    return plan_evacuation(PlanningView.of_cluster(cluster, 0.0), host, cpu_target)


class TestPlanEvacuation:
    def test_full_plan_for_every_vm(self, cluster):
        host = cluster.hosts[0]
        vms = [add_vm(cluster, host, "vm-{}".format(i)) for i in range(3)]
        plan = cluster_plan(cluster, host)
        assert plan is not None
        assert {vm for vm, _ in plan} == set(vms)
        assert all(dst is not host for _, dst in plan)

    def test_empty_host_gives_empty_plan(self, cluster):
        plan = cluster_plan(cluster, cluster.hosts[0])
        assert plan == []

    def test_view_holding_the_host_never_plans_onto_it(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "vm-0")
        # The host's own budget (12.6 cores) is the tightest in the view.
        assert cluster_plan(cluster, host) == [(host.vms["vm-0"], cluster.hosts[1])]

    def test_none_when_memory_does_not_fit(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "huge", mem_gb=60)
        add_vm(cluster, cluster.hosts[1], "filler-1", mem_gb=30)
        add_vm(cluster, cluster.hosts[2], "filler-2", mem_gb=30)
        plan = cluster_plan(cluster, host)
        assert plan is None

    def test_none_when_cpu_budget_exhausted(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "mover", vcpus=8, level=1.0)
        add_vm(cluster, cluster.hosts[1], "busy-1", vcpus=8, level=1.0)
        add_vm(cluster, cluster.hosts[2], "busy-2", vcpus=8, level=1.0)
        # Targets have 13.6-8=5.6 budget each; mover needs 8.
        plan = cluster_plan(cluster, host, cpu_target=0.85)
        assert plan is None

    def test_pinned_by_inflight_migration(self, cluster):
        host = cluster.hosts[0]
        vm = add_vm(cluster, host, "inflight")
        vm.migrating = True
        plan = cluster_plan(cluster, host)
        assert plan is None

    def test_excludes_unplaceable_targets(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "vm-0")
        cluster.hosts[1].evacuating = True
        plan = cluster_plan(cluster, host)
        assert plan is not None
        assert all(dst is cluster.hosts[2] for _, dst in plan)

    def test_best_fit_concentrates(self, cluster):
        host = cluster.hosts[0]
        add_vm(cluster, host, "vm-0", vcpus=2)
        # hosts[2] is tighter (already loaded) and should be preferred.
        add_vm(cluster, cluster.hosts[2], "resident", vcpus=8, level=1.0)
        plan = cluster_plan(cluster, host)
        assert plan is not None
        assert plan[0][1] is cluster.hosts[2]

    def test_invalid_cpu_target(self, cluster):
        with pytest.raises(ValueError):
            cluster_plan(cluster, cluster.hosts[0], cpu_target=1.5)
        # Refused before the in-flight check too.
        add_vm(cluster, cluster.hosts[0], "inflight").migrating = True
        with pytest.raises(ValueError):
            cluster_plan(cluster, cluster.hosts[0], cpu_target=0.0)

    def test_splits_across_multiple_targets(self, cluster):
        host = cluster.hosts[0]
        for i in range(6):
            add_vm(cluster, host, "vm-{}".format(i), vcpus=4, level=1.0)  # 24 cores
        plan = cluster_plan(cluster, host, cpu_target=0.85)
        assert plan is not None
        destinations = {dst.name for _, dst in plan}
        assert len(destinations) == 2

    def test_equal_slack_goes_to_the_first_target(self, cluster):
        host, a, b = cluster.hosts
        add_vm(cluster, host, "vm-0")
        add_vm(cluster, a, "resident-a", vcpus=4, level=0.5)
        add_vm(cluster, b, "resident-b", vcpus=4, level=0.5)
        assert a.resident_demand_cores(0.0) == b.resident_demand_cores(0.0)
        result = plan_evacuation(PlanningView.of_hosts([a, b], 0.0), host, 0.85)
        assert [dst for _, dst in result] == [a]
        result = plan_evacuation(PlanningView.of_hosts([b, a], 0.0), host, 0.85)
        assert [dst for _, dst in result] == [b]
