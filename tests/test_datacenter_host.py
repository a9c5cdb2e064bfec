"""Unit tests for the host model."""

import pytest

from repro.datacenter import Cluster, Host, HostNotActive, InsufficientCapacity, VM
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace

from .test_telemetry_sampler import tick


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def host(env):
    return Host(env, "h0", PROTOTYPE_BLADE, cores=16.0, mem_gb=64.0)


def make_vm(name="vm", vcpus=2, mem_gb=8, level=0.5):
    return VM(name, vcpus=vcpus, mem_gb=mem_gb, trace=FlatTrace(level))


class TestPlacement:
    def test_place_and_remove(self, host):
        vm = make_vm()
        host.place(vm)
        assert vm.host is host
        assert host.vm_count == 1
        host.remove(vm)
        assert vm.host is None
        assert host.vm_count == 0

    def test_remove_unknown_vm_raises(self, host):
        with pytest.raises(KeyError):
            host.remove(make_vm())

    def test_double_place_raises(self, env, host):
        vm = make_vm()
        host.place(vm)
        other = Host(env, "h1", PROTOTYPE_BLADE)
        with pytest.raises(RuntimeError):
            other.place(vm)

    def test_memory_capacity_enforced(self, host):
        host.place(make_vm("big", vcpus=4, mem_gb=60))
        with pytest.raises(InsufficientCapacity):
            host.place(make_vm("second", vcpus=1, mem_gb=8))

    def test_fits_respects_reservation(self, host):
        host.mem_reserved_gb = 60.0
        assert not host.fits(make_vm(mem_gb=8))

    def test_place_on_parked_host_raises(self, env):
        parked = Host(env, "h1", PROTOTYPE_BLADE, initial_state=PowerState.SLEEP)
        with pytest.raises(HostNotActive):
            parked.place(make_vm())

    def test_mem_overcommit(self, env):
        host = Host(env, "h1", PROTOTYPE_BLADE, mem_gb=64.0, mem_overcommit=1.5)
        host.place(make_vm("a", mem_gb=60))
        host.place(make_vm("b", mem_gb=30))  # fits under 96 GB effective
        assert host.mem_free_gb == pytest.approx(6.0)


class TestDemandAndUtilization:
    def test_demand_sums_vms_and_tax(self, host):
        host.place(make_vm("a", vcpus=4, level=0.5))
        host.place(make_vm("b", vcpus=2, level=1.0))
        host.migration_tax_cores = 0.5
        assert host.demand_cores(0.0) == pytest.approx(2.0 + 2.0 + 0.5)

    def test_refresh_sets_power(self, env, host):
        cluster = Cluster(env, [host])
        cluster.add_vm(make_vm("a", vcpus=8, level=1.0), host)  # 8 cores of 16
        shortfall, _ = tick(cluster)
        assert shortfall == 0.0
        expected = PROTOTYPE_BLADE.active_model.power_at(0.5)
        assert host.power_w() == pytest.approx(expected)

    def test_refresh_reports_shortfall(self, env):
        host = Host(env, "small", PROTOTYPE_BLADE, cores=2.0, mem_gb=64.0)
        cluster = Cluster(env, [host])
        cluster.add_vm(make_vm("a", vcpus=4, level=1.0), host)  # wants 4 of 2 cores
        shortfall, _ = tick(cluster)
        assert shortfall == pytest.approx(2.0)
        assert host.machine.utilization == 1.0

    def test_parked_host_with_vms_full_shortfall(self, env):
        # Pathological state the manager must never create; accounting
        # still charges the full demand as undelivered.
        host = Host(env, "h", PROTOTYPE_BLADE)
        cluster = Cluster(env, [host])
        cluster.add_vm(make_vm("a", vcpus=4, level=0.5), host)
        host.machine._state = PowerState.SLEEP  # force the bad state
        shortfall, _ = tick(cluster)
        assert shortfall == pytest.approx(2.0)


class TestParkWake:
    def test_park_empty_host(self, env, host):
        env.process(host.park(PowerState.SLEEP))
        env.run()
        assert host.state is PowerState.SLEEP
        assert not host.is_active

    def test_park_with_vms_refused(self, host):
        host.place(make_vm())
        with pytest.raises(HostNotActive):
            host.park(PowerState.SLEEP)

    def test_park_to_active_rejected(self, host):
        with pytest.raises(ValueError):
            host.park(PowerState.ACTIVE)

    def test_wake_round_trip(self, env, host):
        def cycle(env):
            yield env.process(host.park(PowerState.SLEEP))
            yield env.process(host.wake())

        env.process(cycle(env))
        env.run()
        assert host.is_active

    def test_available_for_placement(self, env, host):
        assert host.available_for_placement
        host.evacuating = True
        assert not host.available_for_placement
        host.evacuating = False
        env.process(host.park(PowerState.SLEEP))
        env.run()
        assert not host.available_for_placement


class TestValidation:
    def test_bad_capacity_rejected(self, env):
        with pytest.raises(ValueError):
            Host(env, "bad", PROTOTYPE_BLADE, cores=0)
        with pytest.raises(ValueError):
            Host(env, "bad", PROTOTYPE_BLADE, mem_gb=-1)
        with pytest.raises(ValueError):
            Host(env, "bad", PROTOTYPE_BLADE, mem_overcommit=0.5)
