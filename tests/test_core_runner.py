"""Tests for the scenario runner (small end-to-end runs)."""

import pytest

from repro import always_on, run_scenario, s3_policy
from repro.core.runner import spread_placement
from repro.datacenter import Cluster, VM
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.workload import FlatTrace, FleetSpec, build_fleet


class TestSpreadPlacement:
    def test_spreads_across_hosts(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 4, cores=16, mem_gb=128)
        vms = [
            VM("vm-{}".format(i), vcpus=4, mem_gb=8, trace=FlatTrace(0.5))
            for i in range(8)
        ]
        spread_placement(vms, cluster)
        counts = [h.vm_count for h in cluster.hosts]
        assert counts == [2, 2, 2, 2]

    def test_raises_when_fleet_does_not_fit(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 1, cores=16, mem_gb=16)
        vms = [
            VM("vm-{}".format(i), vcpus=2, mem_gb=12, trace=FlatTrace(0.5))
            for i in range(3)
        ]
        with pytest.raises(RuntimeError, match="does not fit"):
            spread_placement(vms, cluster)


class TestRunScenario:
    @pytest.fixture(scope="class")
    def small_run(self):
        return run_scenario(
            s3_policy(), n_hosts=6, n_vms=18, horizon_s=6 * 3600, seed=1
        )

    def test_report_policy_name(self, small_run):
        assert small_run.report.policy == "S3-PM"

    def test_horizon_respected(self, small_run):
        assert small_run.env.now == 6 * 3600
        assert small_run.report.horizon_s == 6 * 3600

    def test_energy_positive(self, small_run):
        assert small_run.report.energy_kwh > 0

    def test_all_vms_still_placed(self, small_run):
        for vm in small_run.cluster.vms:
            assert vm.placed

    def test_sampler_collected_expected_samples(self, small_run):
        assert small_run.sampler.samples == 6 * 3600 // 60

    def test_extra_metrics_present(self, small_run):
        for key in ("reactive_wakes", "parks_completed", "balancer_moves"):
            assert key in small_run.report.extra

    def test_power_mgmt_saves_energy(self):
        base = run_scenario(always_on(), n_hosts=6, n_vms=18, horizon_s=6 * 3600, seed=1)
        pm = run_scenario(s3_policy(), n_hosts=6, n_vms=18, horizon_s=6 * 3600, seed=1)
        assert pm.report.energy_kwh < base.report.energy_kwh

    def test_explicit_fleet_accepted(self):
        fleet = build_fleet(FleetSpec(n_vms=10, horizon_s=6 * 3600), seed=9)
        result = run_scenario(
            always_on(), n_hosts=4, horizon_s=3600, fleet=fleet
        )
        assert len(result.cluster.vms) == 10

    def test_churn_enabled(self):
        result = run_scenario(
            s3_policy(),
            n_hosts=6,
            n_vms=12,
            horizon_s=6 * 3600,
            seed=2,
            churn_rate_per_h=6.0,
            churn_lifetime_s=1800.0,
        )
        assert result.churn is not None
        assert result.churn.arrived > 0
        assert "churn_arrived" in result.report.extra

    def test_deterministic_given_seed(self):
        a = run_scenario(s3_policy(), n_hosts=4, n_vms=10, horizon_s=2 * 3600, seed=5)
        b = run_scenario(s3_policy(), n_hosts=4, n_vms=10, horizon_s=2 * 3600, seed=5)
        assert a.report.energy_kwh == pytest.approx(b.report.energy_kwh)
        assert a.report.migrations == b.report.migrations

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            run_scenario(always_on(), horizon_s=0)

    def test_negative_churn_rate_rejected(self):
        # A negative rate is refused, not run as a scenario without churn.
        with pytest.raises(ValueError, match="churn_rate_per_h"):
            run_scenario(always_on(), n_hosts=2, n_vms=4, churn_rate_per_h=-3.0)


class TestRefusedBeforeSetUp:
    """Argument errors raise before a fleet, cluster or checkpoint is touched."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        import repro.core.runner as runner

        def built(*args, **kwargs):
            raise AssertionError("set-up ran before the arguments were checked")

        monkeypatch.setattr(runner, "build_scenario", built)
        monkeypatch.setattr(runner, "load_checkpoint", built)

    def test_checkpoint_every_s_without_dir(self, nothing_built):
        from repro.core import resume_scenario

        with pytest.raises(ValueError, match="checkpoint_every_s requires a checkpoint_dir"):
            run_scenario(s3_policy(), n_hosts=200, n_vms=800, checkpoint_every_s=600.0)
        with pytest.raises(ValueError, match="checkpoint_every_s requires a checkpoint_dir"):
            resume_scenario("ckpt-missing.repro", checkpoint_every_s=600.0)

    def test_horizon_shorter_than_one_trace_sample(self, monkeypatch):
        import repro.core.runner as runner

        def built(*args, **kwargs):
            raise AssertionError("a cluster was built for a horizon with no sample")

        monkeypatch.setattr(runner, "Environment", built)
        with pytest.raises(ValueError, match="shorter than one 60 s trace sample"):
            run_scenario(s3_policy(), n_hosts=3, n_vms=6, horizon_s=36.0)
