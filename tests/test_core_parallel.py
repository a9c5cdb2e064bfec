"""Tests for the parallel scenario execution layer (repro.core.parallel)."""

import os

import pytest

from repro.core import (
    ResultCache,
    ScenarioArtifacts,
    ScenarioSpec,
    always_on,
    run_scenario,
    run_scenarios,
    s3_policy,
    snapshot_result,
)
from repro.core.parallel import default_workers
from repro.power.states import PowerState
from repro.workload import FleetSpec

#: Small-but-nontrivial scenario: parking and waking both happen.
KW = dict(
    n_hosts=4,
    horizon_s=4 * 3600.0,
    seed=11,
    fleet_spec=FleetSpec(n_vms=10, horizon_s=4 * 3600.0, shared_fraction=0.3),
)


def small_spec(policy=s3_policy, label=None):
    return ScenarioSpec(policy(), kwargs=dict(KW), label=label)


class TestDeterminism:
    def test_same_seed_serial_runs_identical(self):
        a = run_scenario(s3_policy(), **KW)
        b = run_scenario(s3_policy(), **KW)
        assert a.report.to_dict() == b.report.to_dict()

    def test_serial_vs_parallel_identical(self):
        serial = run_scenario(s3_policy(), **KW)
        (parallel,) = run_scenarios(
            [small_spec()], workers=2, cache=False
        )
        assert parallel.report.to_dict() == serial.report.to_dict()

    def test_parallel_pool_matches_inline(self):
        specs = [small_spec(always_on), small_spec(s3_policy)]
        inline = run_scenarios(specs, workers=1, cache=False)
        pooled = run_scenarios(
            [small_spec(always_on), small_spec(s3_policy)],
            workers=2,
            cache=False,
        )
        for a, b in zip(inline, pooled):
            assert a.report.to_dict() == b.report.to_dict()

    def test_results_are_order_stable(self):
        specs = [small_spec(s3_policy), small_spec(always_on)]
        results = run_scenarios(specs, workers=2, cache=False)
        assert [r.report.policy for r in results] == ["S3-PM", "AlwaysOn"]


class TestCachingBehavior:
    def test_second_call_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_scenarios([small_spec()], workers=1, cache=cache)
        assert cache.hits == 0
        second = run_scenarios([small_spec()], workers=1, cache=cache)
        assert cache.hits == 1
        assert first[0].report.to_dict() == second[0].report.to_dict()

    def test_cold_cache_across_instances(self, tmp_path):
        run_scenarios([small_spec()], workers=1, cache=ResultCache(tmp_path))
        fresh = ResultCache(tmp_path)
        run_scenarios([small_spec()], workers=1, cache=fresh)
        assert fresh.hits == 1

    def test_duplicate_specs_simulated_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        results = run_scenarios(
            [small_spec(), small_spec()], workers=1, cache=cache
        )
        assert results[0] is results[1]
        assert len(list(cache.entries())) == 1

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(tmp_path)
        run_scenarios([small_spec()], workers=1, cache=cache)
        assert list(cache.entries()) == []

    def test_uncacheable_spec_still_runs(self, tmp_path):
        from repro.workload.fleet import build_fleet
        from tests.test_core_cache import OpaqueTrace

        fleet = build_fleet(FleetSpec(n_vms=6, horizon_s=3600.0), seed=3)
        # A trace holding live RNG state has no canonical encoding, so
        # this scenario must run but bypass the cache.
        fleet[0].trace = OpaqueTrace()
        spec = ScenarioSpec(
            s3_policy(),
            kwargs=dict(n_hosts=3, horizon_s=3600.0, seed=3, fleet=fleet),
        )
        cache = ResultCache(tmp_path)
        (result,) = run_scenarios([spec], workers=1, cache=cache)
        assert result.report.energy_kwh > 0
        assert list(cache.entries()) == []

    def test_serial_run_leaves_an_explicit_fleet_untouched(self, tmp_path):
        # A serial run used to place the spec's own VMs: they stayed bound
        # to the finished run's hosts and counted its migrations, so the
        # digest changed and a second run failed to place them again.
        from repro.workload.fleet import build_fleet

        fleet = build_fleet(FleetSpec(n_vms=24, horizon_s=43200.0), seed=3)
        spec = ScenarioSpec(
            s3_policy(),
            kwargs=dict(n_hosts=6, horizon_s=43200.0, seed=3, fleet=fleet),
        )
        digest = spec.digest()
        cache = ResultCache(tmp_path)
        (first,) = run_scenarios([spec], workers=1, cache=cache)
        assert first.report.migrations > 0
        assert spec.digest() == digest
        assert all(vm.host is None and vm.migration_count == 0 for vm in fleet)
        (second,) = run_scenarios([spec], workers=1, cache=cache)
        assert cache.hits == 1
        assert second.report.to_dict() == first.report.to_dict()

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            run_scenarios([s3_policy()], cache=False)


class TestDefaultWorkers:
    def test_env_sets_pool_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_non_integer_env_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'four'"):
            default_workers()

    @pytest.mark.parametrize("env", ["0", "-4"])
    def test_env_below_one_is_an_error(self, monkeypatch, env):
        # Both used to run one worker through ``max(1, ...)``.
        monkeypatch.setenv("REPRO_WORKERS", env)
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'{}'".format(env)):
            default_workers()
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            run_scenarios([small_spec()], cache=False)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_an_error(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1, got {}".format(workers)):
            run_scenarios([small_spec()], workers=workers, cache=False)

    def test_unset_env_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert default_workers() == 3
        # Without an affinity call (not Linux): the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_workers() == 64


class TestArtifacts:
    def test_snapshot_mirrors_live_result(self):
        live = run_scenario(s3_policy(), **KW)
        art = snapshot_result(live)
        assert isinstance(art, ScenarioArtifacts)
        assert art.report is live.report
        # The sampler's frame as it is, not a copy.
        assert art.series is live.sampler.series
        # Exact sums in host order: F14 divides these by total host-time.
        residency = {state: 0.0 for state in PowerState}
        transit = 0.0
        for host in live.cluster.hosts:
            for state in PowerState:
                residency[state] += host.machine.residency_s(state)
            transit += host.machine.transit_time_s
        assert art.residency_s == residency
        assert art.transit_s == transit
        assert sum(art.residency_s.values()) > 0
        assert art.trace_hash is None and art.trace_jsonl is None

    def test_artifacts_survive_pickling(self):
        import pickle

        (art,) = run_scenarios([small_spec()], workers=1, cache=False)
        clone = pickle.loads(pickle.dumps(art))
        assert clone.report.to_dict() == art.report.to_dict()
        assert clone.series.keys() == art.series.keys()
        for name, series in art.series.items():
            assert clone.series[name].points() == series.points()
        assert clone.residency_s == art.residency_s
        assert clone.transit_s == art.transit_s

    def test_spec_name_prefers_label(self):
        assert small_spec(label="mine").name == "mine"
        assert small_spec().name == "S3-PM"
