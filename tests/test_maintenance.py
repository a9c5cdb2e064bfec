"""Tests for operator maintenance mode."""

import pytest

from repro.core import ManagerConfig, PowerAwareManager
from repro.datacenter import Cluster, VM
from repro.migration import MigrationEngine
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TraceBuffer
from repro.trace_events import ManagerDecision
from repro.workload import FlatTrace


def build(n_hosts=4, config=None, trace=None):
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, n_hosts, cores=16.0, mem_gb=128.0)
    engine = MigrationEngine(env)
    manager = PowerAwareManager(
        env, cluster, engine, config or ManagerConfig(), trace=trace
    )
    return env, cluster, engine, manager


def flat_vm(name, vcpus=2, level=0.5, mem_gb=8):
    return VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))


class TestRequestMaintenance:
    def test_drains_and_powers_off(self):
        env, cluster, engine, manager = build()
        host = cluster.hosts[0]
        cluster.add_vm(flat_vm("a"), host)
        cluster.add_vm(flat_vm("b"), host)
        proc = manager.request_maintenance(host)
        assert env.run(until=proc) is True
        assert host.state is PowerState.OFF
        assert host.in_maintenance
        assert not host.vms
        assert engine.completed == 2
        # Evacuated VMs all landed on active hosts.
        for vm in cluster.vms:
            assert vm.host.is_active

    def test_empty_host_goes_straight_down(self):
        env, cluster, engine, manager = build()
        host = cluster.hosts[0]
        proc = manager.request_maintenance(host)
        assert env.run(until=proc) is True
        assert host.state is PowerState.OFF
        assert engine.completed == 0

    def test_double_request_rejected(self):
        env, cluster, engine, manager = build()
        manager.request_maintenance(cluster.hosts[0])
        with pytest.raises(RuntimeError, match="already in maintenance"):
            manager.request_maintenance(cluster.hosts[0])

    def test_foreign_host_rejected(self):
        env, cluster, engine, manager = build()
        from repro.datacenter import Host

        outsider = Host(env, "outsider", PROTOTYPE_BLADE)
        with pytest.raises(ValueError):
            manager.request_maintenance(outsider)

    def test_impossible_evacuation_releases_hold(self):
        # Single host: nowhere to evacuate to.
        env, cluster, engine, manager = build(n_hosts=1)
        host = cluster.hosts[0]
        cluster.add_vm(flat_vm("pinned"), host)
        proc = manager.request_maintenance(host)
        assert env.run(until=proc) is False
        assert not host.in_maintenance
        assert host.is_active

    def test_manager_does_not_wake_maintenance_host(self):
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, watchdog_period_s=60)
        env, cluster, engine, manager = build(config=cfg)
        host = cluster.hosts[3]
        proc = manager.request_maintenance(host)
        env.run(until=proc)
        # Load every remaining host heavily: the watchdog will want
        # capacity, but must not touch the maintenance host.
        for i in range(3):
            cluster.add_vm(
                flat_vm("hot-{}".format(i), vcpus=16, level=1.0), cluster.hosts[i]
            )
        manager.start()
        env.run(until=2 * 3600)
        assert host.state is PowerState.OFF
        assert host.in_maintenance


class TestEndMaintenance:
    def test_wakes_host_and_rejoins(self):
        env, cluster, engine, manager = build()
        host = cluster.hosts[0]
        down = manager.request_maintenance(host)
        env.run(until=down)
        up = manager.end_maintenance(host)
        env.run(until=up)
        assert host.is_active
        assert not host.in_maintenance
        assert host.available_for_placement

    def test_end_without_request_rejected(self):
        env, cluster, engine, manager = build()
        with pytest.raises(RuntimeError, match="not in maintenance"):
            manager.end_maintenance(cluster.hosts[0])

    def test_log_records_lifecycle(self):
        trace = TraceBuffer(label="maintenance")
        env, cluster, engine, manager = build(trace=trace)
        host = cluster.hosts[0]
        down = manager.request_maintenance(host)
        env.run(until=down)
        manager.end_maintenance(host)
        lifecycle = [
            (e.action, e.detail)
            for e in trace.events
            if isinstance(e, ManagerDecision) and e.host == host.name
        ]
        assert lifecycle == [
            ("maintenance-start", ""),
            ("evac-start", "maintenance, 0 vm(s)"),
            ("park", "off"),
            ("maintenance-down", ""),
            ("maintenance-end", ""),
            ("wake", "maintenance-end"),
        ]
        # Operator drains and wakes are traced but are not plane actions.
        assert manager.log.wakes_requested == 0
        assert manager.log.parks_completed == 0
