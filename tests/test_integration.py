"""Cross-module integration tests: the paper's qualitative claims.

These run short multi-policy simulations and assert the *shape* of the
results the paper reports — who wins, and in which direction the trade-offs
move.  Scenario sizes are kept small so the whole file runs in seconds.
"""

import pytest

from repro import (
    PROTOTYPE_BLADE,
    always_on,
    hybrid_policy,
    run_scenario,
    s3_policy,
    s5_policy,
)
from repro.analysis import (
    ideal_proportional_kwh,
    perfect_consolidation_kwh,
    proportionality_gap,
)
from repro.prototype import make_prototype_blade_profile
from repro.workload import FleetSpec

HORIZON = 24 * 3600.0


@pytest.fixture(scope="module")
def diurnal_runs():
    spec = FleetSpec(
        n_vms=36,
        archetype_weights={"diurnal": 0.8, "flat": 0.2},
        horizon_s=HORIZON,
    )
    return {
        cfg.name: run_scenario(
            cfg, n_hosts=10, horizon_s=HORIZON, seed=42, fleet_spec=spec
        )
        for cfg in (always_on(), s5_policy(), s3_policy(), hybrid_policy())
    }


@pytest.fixture(scope="module")
def bursty_runs():
    spec = FleetSpec(
        n_vms=36,
        archetype_weights={"bursty": 0.7, "diurnal": 0.3},
        shared_fraction=0.6,
        horizon_s=HORIZON,
    )
    return {
        cfg.name: run_scenario(
            cfg, n_hosts=10, horizon_s=HORIZON, seed=7, fleet_spec=spec
        )
        for cfg in (always_on(), s5_policy(), s3_policy())
    }


class TestEnergyOrdering:
    def test_any_power_management_beats_always_on(self, diurnal_runs):
        base = diurnal_runs["AlwaysOn"].report.energy_kwh
        for name in ("S5-PM", "S3-PM", "Hybrid"):
            assert diurnal_runs[name].report.energy_kwh < base

    def test_savings_are_substantial_on_diurnal_load(self, diurnal_runs):
        base = diurnal_runs["AlwaysOn"].report.energy_kwh
        s3 = diurnal_runs["S3-PM"].report.energy_kwh
        assert s3 / base < 0.75  # >25% savings

    def test_s3_saves_at_least_as_much_as_conservative_s5(self, diurnal_runs):
        s3 = diurnal_runs["S3-PM"].report.energy_kwh
        s5 = diurnal_runs["S5-PM"].report.energy_kwh
        assert s3 <= s5 * 1.05

    def test_measured_energy_above_oracle_bounds(self, diurnal_runs):
        run = diurnal_runs["S3-PM"]
        demand = run.sampler.series["demand_cores"]
        ideal = ideal_proportional_kwh(demand, PROTOTYPE_BLADE, 16.0)
        consolidation = perfect_consolidation_kwh(demand, PROTOTYPE_BLADE, 16.0)
        measured = run.report.energy_kwh
        assert measured >= ideal
        assert measured >= consolidation * 0.95


class TestPerformanceImpact:
    def test_always_on_has_no_violations(self, diurnal_runs):
        assert diurnal_runs["AlwaysOn"].report.violation_fraction == 0.0

    def test_s3_violations_negligible_on_diurnal(self, diurnal_runs):
        assert diurnal_runs["S3-PM"].report.violation_fraction < 0.01

    def test_s3_pareto_dominates_s5_under_correlated_bursts(self, bursty_runs):
        # Policy-fair comparison: conservative S5 may match S3's violation
        # level, but only by saving less energy.  S3 must win the joint
        # trade: at least as much savings at a comparable violation level.
        s3 = bursty_runs["S3-PM"].report
        s5 = bursty_runs["S5-PM"].report
        assert s3.energy_kwh <= s5.energy_kwh * 1.02
        assert s3.violation_fraction <= 2.0 * s5.violation_fraction + 0.005

    def test_violations_bounded_even_for_s5(self, bursty_runs):
        assert bursty_runs["S5-PM"].report.violation_fraction < 0.1


class TestOverheadParity:
    def test_pm_migration_overhead_comparable_to_drm(self):
        spec = FleetSpec(n_vms=30, horizon_s=HORIZON)
        base = run_scenario(
            always_on(), n_hosts=10, horizon_s=HORIZON, seed=3,
            fleet_spec=spec, churn_rate_per_h=4.0,
        )
        pm = run_scenario(
            s3_policy(), n_hosts=10, horizon_s=HORIZON, seed=3,
            fleet_spec=spec, churn_rate_per_h=4.0,
        )
        # "Comparable overheads as base DRM": same order of magnitude.
        assert pm.report.migrations_per_hour <= 10 * max(
            base.report.migrations_per_hour, 1.0
        )

    def test_transition_rate_is_modest(self, diurnal_runs):
        report = diurnal_runs["S3-PM"].report
        assert report.transitions_per_host_per_day < 20


class TestEnergyProportionality:
    def test_s3_much_closer_to_proportional_than_always_on(self, diurnal_runs):
        peak = 10 * PROTOTYPE_BLADE.peak_w
        gap_base = proportionality_gap(
            diurnal_runs["AlwaysOn"].sampler.series, 160.0, peak
        )
        gap_s3 = proportionality_gap(
            diurnal_runs["S3-PM"].sampler.series, 160.0, peak
        )
        assert gap_s3 < 0.5 * gap_base


class TestLatencySensitivity:
    def test_slower_wake_hurts_availability(self):
        spec = FleetSpec(
            n_vms=30,
            archetype_weights={"bursty": 1.0},
            shared_fraction=0.7,
            horizon_s=HORIZON,
        )
        results = {}
        for latency in (10.0, 600.0):
            profile = make_prototype_blade_profile(resume_latency_s=latency)
            cfg = s3_policy()
            run = run_scenario(
                cfg, n_hosts=10, horizon_s=HORIZON, seed=13,
                fleet_spec=spec, profile=profile,
            )
            results[latency] = run.report
        assert (
            results[600.0].violation_time_fraction
            >= results[10.0].violation_time_fraction
        )


class TestSystemConsistency:
    def test_vm_count_conserved_without_churn(self, diurnal_runs):
        for run in diurnal_runs.values():
            assert len(run.cluster.vms) == 36

    def test_no_vm_stranded_on_parked_host(self, diurnal_runs):
        for run in diurnal_runs.values():
            for host in run.cluster.parked_hosts():
                assert not host.vms

    def test_energy_equals_sum_of_host_meters(self, diurnal_runs):
        run = diurnal_runs["S3-PM"]
        total = sum(h.energy_j() for h in run.cluster.hosts)
        assert run.cluster.energy_j() == pytest.approx(total)

    def test_power_series_never_negative(self, diurnal_runs):
        for run in diurnal_runs.values():
            assert run.sampler.series["power_w"].min() >= 0.0
