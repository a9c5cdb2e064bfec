"""Unit tests for the DVFS model and its host integration."""

import pytest

from repro.datacenter import Cluster, Host, VM
from repro.power import DvfsModel
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace

from .test_telemetry_sampler import tick


class TestDvfsModel:
    def test_defaults_valid(self):
        DvfsModel()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"levels": ()},
            {"levels": (0.8, 0.5, 1.0)},
            {"levels": (0.5, 0.8)},  # must end at 1.0
            {"levels": (0.0, 1.0)},
            {"static_fraction": 1.5},
            {"exponent": 0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DvfsModel(**kwargs)

    def test_power_scale_is_one_at_nominal(self):
        assert DvfsModel().power_scale(1.0) == pytest.approx(1.0)

    def test_power_scale_monotone_in_frequency(self):
        m = DvfsModel()
        scales = [m.power_scale(f) for f in m.levels]
        assert scales == sorted(scales)

    def test_power_scale_floored_by_static_fraction(self):
        m = DvfsModel(static_fraction=0.4)
        assert m.power_scale(m.levels[0]) > 0.4

    def test_power_scale_validation(self):
        with pytest.raises(ValueError):
            DvfsModel().power_scale(0.0)
        with pytest.raises(ValueError):
            DvfsModel().power_scale(1.2)

    def test_level_for_picks_lowest_sufficient(self):
        m = DvfsModel(levels=(0.5, 0.75, 1.0))
        # load 0.3 with target 0.8: 0.5*0.8=0.4 >= 0.3 → pick 0.5
        assert m.level_for(0.3, target=0.8) == 0.5
        # load 0.5: 0.5*0.8=0.4 < 0.5; 0.75*0.8=0.6 >= 0.5 → 0.75
        assert m.level_for(0.5, target=0.8) == 0.75

    def test_level_for_overload_returns_nominal(self):
        m = DvfsModel()
        assert m.level_for(1.5) == 1.0

    def test_level_for_validation(self):
        with pytest.raises(ValueError):
            DvfsModel().level_for(-0.1)
        with pytest.raises(ValueError):
            DvfsModel().level_for(0.5, target=0.0)


class TestHostDvfsIntegration:
    def make_host(self, level):
        env = Environment()
        host = Host(
            env,
            "h0",
            PROTOTYPE_BLADE,
            cores=16.0,
            mem_gb=128.0,
            dvfs=DvfsModel(),
        )
        cluster = Cluster(env, [host])
        cluster.add_vm(VM("vm", vcpus=16, mem_gb=16, trace=FlatTrace(level)), host)
        return cluster, host

    def test_light_load_drops_frequency(self):
        cluster, host = self.make_host(level=0.2)
        tick(cluster)
        assert host.frequency < 1.0

    def test_heavy_load_keeps_nominal(self):
        cluster, host = self.make_host(level=0.95)
        tick(cluster)
        assert host.frequency == 1.0

    def test_dvfs_reduces_power_at_partial_load(self):
        env_a = Environment()
        plain = Host(env_a, "plain", PROTOTYPE_BLADE, cores=16.0, mem_gb=128.0)
        cluster_a = Cluster(env_a, [plain])
        cluster_a.add_vm(VM("v1", vcpus=16, mem_gb=16, trace=FlatTrace(0.3)), plain)
        tick(cluster_a)

        cluster_b, scaled = self.make_host(level=0.3)
        tick(cluster_b)
        assert scaled.power_w() < plain.power_w()

    def test_dvfs_never_reduces_power_below_idle(self):
        cluster, host = self.make_host(level=0.05)
        tick(cluster)
        assert host.power_w() >= PROTOTYPE_BLADE.idle_w - 1e-9

    def test_governor_never_creates_shortfall_nominal_avoids(self):
        cluster, host = self.make_host(level=0.9)  # 14.4 cores of 16
        shortfall, _ = tick(cluster)
        assert shortfall == 0.0

    def test_no_dvfs_keeps_frequency_at_one(self):
        env = Environment()
        host = Host(env, "h0", PROTOTYPE_BLADE)
        tick(Cluster(env, [host]))
        assert host.frequency == 1.0

    def test_invalid_target_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Host(env, "h0", PROTOTYPE_BLADE, dvfs=DvfsModel(), dvfs_target=0.0)


class TestDvfsClassAccounting:
    def test_class_shortfall_uses_scaled_capacity(self):
        from repro.datacenter import Priority

        env = Environment()
        host = Host(
            env, "h0", PROTOTYPE_BLADE, cores=16.0, mem_gb=128.0, dvfs=DvfsModel()
        )
        cluster = Cluster(env, [host])
        cluster.add_vm(VM("g", vcpus=4, mem_gb=8, trace=FlatTrace(1.0),
                          priority=Priority.GOLD), host)
        cluster.add_vm(VM("b", vcpus=4, mem_gb=8, trace=FlatTrace(1.0),
                          priority=Priority.BRONZE), host)
        aggregate, by_class = tick(cluster)
        assert sum(by_class.values()) == pytest.approx(aggregate)
        # Demand 8 of 16 cores: governor picks f=0.7 (8 <= 0.8*0.7*16);
        # scaled capacity 11.2 covers everything.
        assert aggregate == 0.0
        assert host.frequency < 1.0
