"""Unit tests for oracle bounds, proportionality metrics, and formatting."""

import pytest

from repro.analysis import (
    ideal_proportional_kwh,
    perfect_consolidation_kwh,
    proportionality_curve,
    proportionality_gap,
    render_series,
    render_table,
)
from repro.datacenter import Cluster, VM
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import ClusterSampler, TimeSeries
from repro.workload import FlatTrace


def constant_demand_series(demand, horizon=3600.0, step=60.0):
    ts = TimeSeries("demand_cores")
    t = 0.0
    while t <= horizon:
        ts.append(t, demand)
        t += step
    return ts


class TestIdealProportional:
    def test_linear_in_demand(self):
        a = ideal_proportional_kwh(constant_demand_series(8.0), PROTOTYPE_BLADE, 16.0)
        b = ideal_proportional_kwh(constant_demand_series(16.0), PROTOTYPE_BLADE, 16.0)
        assert b == pytest.approx(2 * a)

    def test_one_host_fully_loaded(self):
        kwh = ideal_proportional_kwh(
            constant_demand_series(16.0), PROTOTYPE_BLADE, 16.0
        )
        expected = PROTOTYPE_BLADE.peak_w * 1.0 / 1000.0  # 1 h at peak
        assert kwh == pytest.approx(expected, rel=0.01)

    def test_zero_demand_zero_energy(self):
        kwh = ideal_proportional_kwh(constant_demand_series(0.0), PROTOTYPE_BLADE, 16.0)
        assert kwh == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_proportional_kwh(constant_demand_series(1.0), PROTOTYPE_BLADE, 0.0)
        short = TimeSeries("demand_cores")
        short.append(0.0, 1.0)
        with pytest.raises(ValueError):
            ideal_proportional_kwh(short, PROTOTYPE_BLADE, 16.0)


class TestPerfectConsolidation:
    def test_exceeds_proportional_bound(self):
        demand = constant_demand_series(10.0)
        ideal = ideal_proportional_kwh(demand, PROTOTYPE_BLADE, 16.0)
        consolidated = perfect_consolidation_kwh(demand, PROTOTYPE_BLADE, 16.0)
        assert consolidated >= ideal

    def test_parked_floor_adds_energy(self):
        demand = constant_demand_series(10.0)
        without = perfect_consolidation_kwh(demand, PROTOTYPE_BLADE, 16.0)
        with_floor = perfect_consolidation_kwh(
            demand, PROTOTYPE_BLADE, 16.0, parked_power_w=11.5, n_hosts=10
        )
        assert with_floor > without

    def test_host_count_steps(self):
        low = perfect_consolidation_kwh(
            constant_demand_series(10.0), PROTOTYPE_BLADE, 16.0, cpu_target=0.85
        )
        high = perfect_consolidation_kwh(
            constant_demand_series(20.0), PROTOTYPE_BLADE, 16.0, cpu_target=0.85
        )
        assert high > low

    def test_validation(self):
        demand = constant_demand_series(10.0)
        with pytest.raises(ValueError):
            perfect_consolidation_kwh(demand, PROTOTYPE_BLADE, 16.0, cpu_target=0.0)
        with pytest.raises(ValueError):
            perfect_consolidation_kwh(
                demand, PROTOTYPE_BLADE, 16.0, parked_power_w=5.0, n_hosts=0
            )


class TestProportionalityMetrics:
    @pytest.fixture
    def sampled_cluster(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=16.0, mem_gb=64.0)
        cluster.add_vm(
            VM("vm", vcpus=16, mem_gb=16, trace=FlatTrace(0.5)), cluster.hosts[0]
        )
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=3600)
        return cluster, sampler

    def test_curve_points_in_unit_square(self, sampled_cluster):
        cluster, sampler = sampled_cluster
        peak = 2 * PROTOTYPE_BLADE.peak_w
        curve = proportionality_curve(sampler.series, 32.0, peak)
        for load, power in curve:
            assert 0.0 <= load <= 1.0
            assert 0.0 <= power <= 1.0 + 1e-9

    def test_always_on_cluster_has_large_gap(self, sampled_cluster):
        cluster, sampler = sampled_cluster
        peak = 2 * PROTOTYPE_BLADE.peak_w
        # Load 8/32 = 0.25, power way above 0.25 of peak: big gap.
        gap = proportionality_gap(sampler.series, 32.0, peak)
        assert gap > 0.2

    def test_validation(self, sampled_cluster):
        _, sampler = sampled_cluster
        with pytest.raises(ValueError):
            proportionality_curve(sampler.series, 0.0, 100.0)
        with pytest.raises(ValueError):
            proportionality_gap(sampler.series, 32.0, 0.0)


class TestRenderers:
    def test_table_contains_cells(self):
        text = render_table(["name", "value"], [["row1", 1.5], ["row2", 2.5]])
        assert "row1" in text and "2.5" in text

    def test_table_title(self):
        text = render_table(["a"], [["x"]], title="T99")
        assert text.startswith("T99")

    def test_table_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_table_no_headers_rejected(self):
        with pytest.raises(ValueError):
            render_table([], [])

    def test_series_sparkline(self):
        text = render_series([(0, 1.0), (1, 5.0), (2, 3.0)], name="demo")
        assert "demo" in text
        assert "[1 .. 5]" in text

    def test_series_flat_line(self):
        text = render_series([(0, 2.0), (1, 2.0)])
        assert text  # renders without dividing by zero

    def test_series_empty_rejected(self):
        with pytest.raises(ValueError):
            render_series([])

    def test_series_downsamples_to_width(self):
        points = [(i, float(i % 7)) for i in range(1000)]
        text = render_series(points, width=50)
        assert len(text) <= 80
