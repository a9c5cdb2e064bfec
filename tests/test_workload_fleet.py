"""Unit tests for fleet construction."""

import pytest

from repro.workload import FleetSpec, build_fleet, enterprise_mix


class TestFleetSpec:
    def test_defaults_valid(self):
        FleetSpec()

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(n_vms=0)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(vcpu_choices=(1, 2), vcpu_weights=(1.0,))

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(archetype_weights={"weird": 1.0})

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_archetype_weights_checked(self, bad):
        with pytest.raises(ValueError, match="archetype weights"):
            FleetSpec(archetype_weights={"diurnal": 1.0, "flat": bad})

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_vcpu_weights_checked(self, bad):
        with pytest.raises(ValueError, match="vcpu weights"):
            FleetSpec(vcpu_choices=(1, 2), vcpu_weights=(1.0, bad))

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_priority_weights_checked(self, bad):
        with pytest.raises(ValueError, match="priority weights"):
            FleetSpec(priority_weights={"gold": 1.0, "bronze": bad})

    def test_shared_fraction_validated(self):
        with pytest.raises(ValueError):
            FleetSpec(shared_fraction=1.5)
        with pytest.raises(ValueError):
            FleetSpec(shared_kind="nope", shared_fraction=0.5)


class TestBuildFleet:
    def test_size(self):
        fleet = build_fleet(FleetSpec(n_vms=25), seed=0)
        assert len(fleet) == 25

    def test_unique_names(self):
        fleet = build_fleet(FleetSpec(n_vms=30), seed=0)
        assert len({vm.name for vm in fleet}) == 30

    def test_reproducible_from_seed(self):
        a = build_fleet(FleetSpec(n_vms=20), seed=5)
        b = build_fleet(FleetSpec(n_vms=20), seed=5)
        for vm_a, vm_b in zip(a, b):
            assert vm_a.vcpus == vm_b.vcpus
            assert vm_a.mem_gb == vm_b.mem_gb
            for t in (0.0, 3600.0, 40000.0):
                assert vm_a.demand_cores(t) == vm_b.demand_cores(t)

    def test_seed_changes_fleet(self):
        a = build_fleet(FleetSpec(n_vms=20), seed=1)
        b = build_fleet(FleetSpec(n_vms=20), seed=2)
        demands_a = [vm.demand_cores(7200.0) for vm in a]
        demands_b = [vm.demand_cores(7200.0) for vm in b]
        assert demands_a != demands_b

    def test_vcpus_from_choices(self):
        spec = FleetSpec(n_vms=40, vcpu_choices=(2, 4), vcpu_weights=(0.5, 0.5))
        for vm in build_fleet(spec, seed=0):
            assert vm.vcpus in (2.0, 4.0)

    def test_memory_per_vcpu(self):
        spec = FleetSpec(n_vms=10, mem_gb_per_vcpu=8.0)
        for vm in build_fleet(spec, seed=0):
            assert vm.mem_gb == pytest.approx(vm.vcpus * 8.0)

    def test_demand_within_bounds(self):
        fleet = build_fleet(FleetSpec(n_vms=30), seed=0)
        for vm in fleet:
            for t in range(0, 86_400, 3600):
                d = vm.demand_cores(float(t))
                assert 0.0 <= d <= vm.vcpus

    def test_name_prefix(self):
        fleet = build_fleet(FleetSpec(n_vms=3), seed=0, name_prefix="web")
        assert all(vm.name.startswith("web-") for vm in fleet)


class TestSharedFraction:
    def test_shared_signal_correlates_fleet(self):
        import numpy as np

        spec = FleetSpec(
            n_vms=30,
            archetype_weights={"flat": 1.0},
            shared_fraction=0.8,
            shared_kind="bursty",
            horizon_s=2 * 86_400.0,
        )
        fleet = build_fleet(spec, seed=3)
        times = np.arange(0, 2 * 86_400.0, 300.0)
        total = np.array(
            [sum(vm.demand_cores(t) for vm in fleet) for t in times]
        )
        # Correlated bursts make aggregate demand swing much more than
        # independent flat traces would (which would stay near constant).
        assert total.max() > 1.8 * total.min()

    def test_zero_shared_fraction_independent(self):
        spec = FleetSpec(n_vms=5, shared_fraction=0.0)
        fleet = build_fleet(spec, seed=3)
        assert len(fleet) == 5


class TestEnterpriseMix:
    def test_factory(self):
        spec = enterprise_mix(n_vms=42)
        assert spec.n_vms == 42
        assert set(spec.archetype_weights) == {"diurnal", "bursty", "flat", "spiky"}
