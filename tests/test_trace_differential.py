"""Differential trace tests: execution strategy must not change the trace.

The trace hash (SHA-256 of the canonical JSONL stream) is the equality
oracle: serial vs. process-pool execution, and cold vs. warm result
cache, must all yield byte-identical traces for the same spec.  Any
divergence means simulation behaviour leaked a dependency on *where* or
*whether* the scenario actually ran — exactly the class of bug the
parallel layer promises not to have.
"""

import pytest

from repro.core import (
    ResultCache,
    ScenarioSpec,
    always_on,
    run_scenario,
    run_scenarios,
    s3_policy,
)
from repro.telemetry import parse_trace, validate_trace
from repro.workload import FleetSpec

#: Small-but-nontrivial scenario: parking, waking, and migration happen.
KW = dict(
    n_hosts=4,
    horizon_s=4 * 3600.0,
    seed=11,
    fleet_spec=FleetSpec(n_vms=10, horizon_s=4 * 3600.0, shared_fraction=0.3),
)


def traced_spec(policy=s3_policy, label=None):
    return ScenarioSpec(policy(), kwargs=dict(KW, trace=True), label=label)


class TestSerialVsParallel:
    def test_inline_run_matches_pooled_run(self):
        inline = run_scenario(s3_policy(), trace=True, **KW)
        (pooled,) = run_scenarios([traced_spec()], workers=2, cache=False)
        assert pooled.trace_hash is not None
        assert pooled.trace_hash == inline.trace.trace_hash()
        assert pooled.trace_jsonl == inline.trace.to_jsonl()

    def test_worker_count_does_not_change_any_hash(self):
        specs = [traced_spec(always_on), traced_spec(s3_policy)]
        serial = run_scenarios(specs, workers=1, cache=False)
        pooled = run_scenarios(
            [traced_spec(always_on), traced_spec(s3_policy)],
            workers=2,
            cache=False,
        )
        assert [a.trace_hash for a in serial] == [a.trace_hash for a in pooled]
        assert all(a.trace_hash for a in serial)

    def test_shipped_jsonl_validates_standalone(self):
        (art,) = run_scenarios([traced_spec()], workers=2, cache=False)
        log = parse_trace(art.trace_jsonl)
        report = validate_trace(log, report=art.report)
        assert report.ok, "\n" + report.render_text()


class TestColdVsWarmCache:
    def test_warm_hit_returns_the_identical_trace(self, tmp_path):
        cache = ResultCache(tmp_path)
        (cold,) = run_scenarios([traced_spec()], workers=1, cache=cache)
        assert cache.hits == 0
        (warm,) = run_scenarios([traced_spec()], workers=1, cache=cache)
        assert cache.hits == 1
        assert warm.trace_hash == cold.trace_hash
        assert warm.trace_jsonl == cold.trace_jsonl

    def test_cache_round_trip_across_instances(self, tmp_path):
        (cold,) = run_scenarios(
            [traced_spec()], workers=1, cache=ResultCache(tmp_path)
        )
        fresh = ResultCache(tmp_path)
        (warm,) = run_scenarios([traced_spec()], workers=1, cache=fresh)
        assert fresh.hits == 1
        assert warm.trace_hash == cold.trace_hash

    def test_traced_and_untraced_specs_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        plain = ScenarioSpec(s3_policy(), kwargs=dict(KW))
        traced = traced_spec()
        assert plain.digest() != traced.digest()
        (a,) = run_scenarios([plain], workers=1, cache=cache)
        (b,) = run_scenarios([traced], workers=1, cache=cache)
        assert cache.hits == 0
        assert a.trace_hash is None
        assert b.trace_hash is not None
        # Reports agree even though only one spec recorded a trace: the
        # recorder must not perturb the simulation itself.
        assert a.report.to_dict() == b.report.to_dict()


class TestArtifactsSurvivePickling:
    def test_trace_fields_round_trip_through_pickle(self):
        import pickle

        (art,) = run_scenarios([traced_spec()], workers=1, cache=False)
        clone = pickle.loads(pickle.dumps(art))
        assert clone.trace_hash == art.trace_hash
        assert clone.trace_jsonl == art.trace_jsonl


@pytest.mark.parametrize("policy", [always_on, s3_policy])
def test_trace_hash_differs_between_policies(policy):
    # Sanity: the oracle is not vacuous — different behaviour, different hash.
    (a,) = run_scenarios([traced_spec(always_on)], workers=1, cache=False)
    (b,) = run_scenarios([traced_spec(policy)], workers=1, cache=False)
    expected_equal = policy is always_on
    assert (a.trace_hash == b.trace_hash) is expected_equal
