"""Tests for anti-affinity (HA replica) constraints."""

import pytest

from repro.core import ManagerConfig, PowerAwareManager
from repro.datacenter import Cluster, Host, InsufficientCapacity, VM
from repro.migration import MigrationEngine
from repro.placement import (
    PackingError,
    dot_product_packing,
    first_fit_decreasing,
    plan_evacuation,
)
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace, FleetSpec, assign_replica_groups, build_fleet


def ha_vm(name, group, vcpus=2, mem_gb=8, level=0.5):
    vm = VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))
    vm.anti_affinity_group = group
    return vm


@pytest.fixture
def cluster():
    env = Environment()
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=64.0)


class TestHostEnforcement:
    def test_fits_rejects_group_collision(self, cluster):
        host = cluster.hosts[0]
        host.place(ha_vm("a", "g1"))
        assert not host.fits(ha_vm("b", "g1"))
        assert host.fits(ha_vm("c", "g2"))
        assert host.fits(VM("plain", vcpus=1, mem_gb=4, trace=FlatTrace(0.1)))

    def test_place_raises_on_collision(self, cluster):
        host = cluster.hosts[0]
        host.place(ha_vm("a", "g1"))
        with pytest.raises(InsufficientCapacity):
            host.place(ha_vm("b", "g1"))

    def test_reserved_group_blocks_fit(self, cluster):
        host = cluster.hosts[0]
        host.groups_reserved.add("g1")
        assert not host.fits(ha_vm("x", "g1"))


class TestMigrationEnforcement:
    def test_migration_to_replica_host_rejected(self, cluster):
        env = cluster.env
        engine = MigrationEngine(env)
        a = ha_vm("a", "g1")
        b = ha_vm("b", "g1")
        cluster.add_vm(a, cluster.hosts[0])
        cluster.add_vm(b, cluster.hosts[1])
        with pytest.raises(RuntimeError):
            engine.migrate(a, cluster.hosts[1])

    def test_concurrent_inflight_replicas_cannot_converge(self, cluster):
        env = cluster.env
        engine = MigrationEngine(env)
        a = ha_vm("a", "g1")
        b = ha_vm("b", "g1")
        cluster.add_vm(a, cluster.hosts[0])
        cluster.add_vm(b, cluster.hosts[1])
        engine.migrate(a, cluster.hosts[2])
        # While a's migration is in flight, b must not target host 2.
        with pytest.raises(RuntimeError):
            engine.migrate(b, cluster.hosts[2])
        env.run()
        assert a.host is cluster.hosts[2]
        assert b.host is cluster.hosts[1]

    def test_reservation_released_after_migration(self, cluster):
        env = cluster.env
        engine = MigrationEngine(env)
        a = ha_vm("a", "g1")
        cluster.add_vm(a, cluster.hosts[0])
        engine.migrate(a, cluster.hosts[2])
        env.run()
        assert "g1" not in cluster.hosts[2].groups_reserved
        # Resident now, so still unfittable for a replica — via residency.
        assert not cluster.hosts[2].fits(ha_vm("b", "g1"))


class TestPlannerEnforcement:
    def test_ffd_separates_replicas(self, cluster):
        vms = [ha_vm("a", "g1"), ha_vm("b", "g1"), ha_vm("c", "g1")]
        plan = first_fit_decreasing(vms, cluster.hosts)
        hosts_used = [h.name for h in plan.values()]
        assert len(set(hosts_used)) == 3

    def test_ffd_raises_when_groups_exceed_hosts(self, cluster):
        vms = [ha_vm("vm-{}".format(i), "g1", vcpus=1) for i in range(4)]
        with pytest.raises(PackingError):
            first_fit_decreasing(vms, cluster.hosts)

    def test_dot_product_separates_replicas(self, cluster):
        vms = [ha_vm("a", "g1"), ha_vm("b", "g1")]
        plan = dot_product_packing(vms, cluster.hosts)
        assert plan[vms[0]] is not plan[vms[1]]

    def test_evacuation_respects_groups(self, cluster):
        # Replica of the evacuating VM already lives on hosts[1]: the
        # plan must route the mover to hosts[2].
        mover = ha_vm("mover", "g1")
        resident = ha_vm("resident", "g1")
        cluster.add_vm(mover, cluster.hosts[0])
        cluster.add_vm(resident, cluster.hosts[1])
        plan = plan_evacuation(
            cluster.hosts[0],
            cluster.hosts[1:],
            now=0.0,
        )
        assert plan is not None
        assert plan[0][1] is cluster.hosts[2]

    def test_evacuation_impossible_when_no_group_free_host(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=16.0, mem_gb=64.0)
        mover = ha_vm("mover", "g1")
        resident = ha_vm("resident", "g1")
        cluster.add_vm(mover, cluster.hosts[0])
        cluster.add_vm(resident, cluster.hosts[1])
        plan = plan_evacuation(
            cluster.hosts[0],
            cluster.hosts[1:],
            now=0.0,
        )
        assert plan is None


class TestReplicaGroupBuilder:
    def test_assigns_requested_groups(self):
        fleet = build_fleet(FleetSpec(n_vms=20, horizon_s=3600.0), seed=0)
        assign_replica_groups(fleet, n_groups=3, replicas=2, seed=1)
        groups = {}
        for vm in fleet:
            if vm.anti_affinity_group:
                groups.setdefault(vm.anti_affinity_group, 0)
                groups[vm.anti_affinity_group] += 1
        assert len(groups) == 3
        assert all(count == 2 for count in groups.values())

    def test_too_many_groups_rejected(self):
        fleet = build_fleet(FleetSpec(n_vms=3, horizon_s=3600.0), seed=0)
        with pytest.raises(ValueError):
            assign_replica_groups(fleet, n_groups=2, replicas=2)

    def test_replicas_validation(self):
        fleet = build_fleet(FleetSpec(n_vms=10, horizon_s=3600.0), seed=0)
        with pytest.raises(ValueError):
            assign_replica_groups(fleet, n_groups=1, replicas=1)


class TestEndToEndWithManager:
    def test_replicas_never_colocated_through_management(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 4, cores=16.0, mem_gb=128.0)
        engine = MigrationEngine(env)
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, min_active_hosts=2)
        manager = PowerAwareManager(env, cluster, engine, cfg)
        fleet = build_fleet(FleetSpec(n_vms=12, horizon_s=12 * 3600.0), seed=5)
        assign_replica_groups(fleet, n_groups=3, replicas=2, seed=6)
        from repro.core.runner import spread_placement

        spread_placement(fleet, cluster)

        def check_invariant():
            placements = {}
            for vm in cluster.vms:
                if vm.anti_affinity_group and vm.host is not None:
                    key = (vm.anti_affinity_group, vm.host.name)
                    placements[key] = placements.get(key, 0) + 1
            assert all(count == 1 for count in placements.values()), placements

        manager.start()
        for hour in range(1, 13):
            env.run(until=hour * 3600.0)
            check_invariant()
