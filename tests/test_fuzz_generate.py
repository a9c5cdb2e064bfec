"""Tests for the seeded spec generator and campaign determinism."""

import json
from pathlib import Path

import pytest

from repro.core.parallel import run_scenarios
from repro.fuzz import run_campaign
from repro.fuzz.generate import generate_campaign, generate_spec
from repro.fuzz.oracle import run_spec

#: ``repro fuzz --campaign 20 --seed 7 --json``: every spec's label, trace
#: hash and event count, over both planes, faults, churn and staleness.
CAMPAIGN_GOLDEN = Path(__file__).resolve().parent / "golden" / "fuzz_campaign_seed7.json"


class TestGeneratorDeterminism:
    def test_same_seed_and_index_is_byte_identical(self):
        for index in (0, 1, 17):
            a = generate_spec(909, index)
            b = generate_spec(909, index)
            assert a == b
            assert a.dumps() == b.dumps()

    def test_indices_draw_independently(self):
        # Generating index 5 directly equals generating it after 0..4:
        # each index gets its own qualified RNG stream.
        direct = generate_spec(909, 5)
        _ = [generate_spec(909, i) for i in range(5)]
        again = generate_spec(909, 5)
        assert direct == again

    def test_different_seeds_differ(self):
        assert generate_spec(1, 0) != generate_spec(2, 0)

    def test_different_indices_differ(self):
        assert generate_spec(909, 0) != generate_spec(909, 1)

    def test_campaign_is_index_ordered(self):
        specs = generate_campaign(909, 4)
        assert specs == [generate_spec(909, i) for i in range(4)]

    def test_campaign_size_validated(self):
        with pytest.raises(ValueError):
            generate_campaign(909, 0)


class TestGeneratedFeasibility:
    def test_generated_specs_run_and_certify(self):
        # A generated spec never dies in setup: the cluster is sized
        # against the exact fleet it materializes.
        for index in range(3):
            spec = generate_spec(31337, index)
            outcome = run_spec(spec, cache=False)
            assert outcome.status != "error", outcome.error

    def test_cluster_memory_slack(self):
        from repro.workload.fleet import build_fleet

        for index in range(5):
            spec = generate_spec(31337, index)
            fleet = build_fleet(
                spec.workload.fleet_spec(spec.horizon_s), seed=spec.seed
            )
            total_mem = sum(vm.mem_gb for vm in fleet)
            capacity = spec.cluster.n_hosts * spec.cluster.host_mem_gb
            assert capacity >= total_mem * 1.25


class TestPoolDeterminism:
    def test_trace_hashes_identical_across_pool_widths(self):
        # The same campaign prefix run serially and through the process
        # pool yields byte-identical decision traces (satellite: same
        # seed -> same trace hashes across pool re-runs).
        specs = [generate_spec(777, i).scenario_spec() for i in range(4)]
        serial = run_scenarios(specs, workers=1, cache=False)
        pooled = run_scenarios(specs, workers=2, cache=False)
        serial_hashes = [a.trace_hash for a in serial]
        pooled_hashes = [a.trace_hash for a in pooled]
        assert serial_hashes == pooled_hashes
        assert all(h is not None for h in serial_hashes)


class TestCampaignWorkers:
    @pytest.mark.parametrize("workers, env", [(0, None), (-3, None), (None, "0")])
    def test_a_worker_count_below_one_is_refused_before_any_run(
        self, workers, env, monkeypatch
    ):
        # A failed batch falls back to serial runs, which would hide the
        # bad count; the campaign refuses it before generating anything.
        if env is not None:
            monkeypatch.setenv("REPRO_WORKERS", env)
        monkeypatch.setattr(
            "repro.fuzz.campaign.generate_campaign",
            lambda *a: pytest.fail("a campaign ran with a bad worker count"),
        )
        with pytest.raises(ValueError, match=">= 1"):
            run_campaign(4, 7, workers=workers, cache=False)


class TestCampaignGolden:
    def test_campaign_summary_byte_identical(self, update_golden):
        summary = run_campaign(20, 7, workers=1, cache=False)
        text = json.dumps(summary.to_json_dict(), indent=2, sort_keys=True) + "\n"
        if update_golden:
            CAMPAIGN_GOLDEN.write_bytes(text.encode("utf-8"))
            pytest.skip("campaign golden regenerated; inspect and commit the diff")
        assert text.encode("utf-8") == CAMPAIGN_GOLDEN.read_bytes(), (
            "the seed-7 campaign drifted from {}; if the behaviour change is "
            "intended, rerun with --update-golden and commit the regenerated "
            "file".format(CAMPAIGN_GOLDEN.name)
        )
