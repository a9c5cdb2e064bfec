"""Checkpoint/resume: differential determinism, rejection, streaming, branch.

The hard bar: a run resumed from any checkpoint must produce a decision
trace **byte-identical** to the uninterrupted run's, on both management
planes, with churn, faults and stale telemetry in play.  The trace hash
is the certification key (same as the differential suite), and the trace
validator certifies the resumed runs too.
"""

import json

import pytest

from repro.core import ResultCache, branch_scenarios, run_scenario
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    read_manifest,
)
from repro.core.policies import hybrid_policy, s3_policy, s5_policy
from repro.core.runner import resume_scenario
from repro.datacenter import FaultModel, RepairModel
from repro.telemetry.validate import validate_trace

KW = dict(
    n_hosts=6,
    n_vms=18,
    horizon_s=3 * 3600.0,
    seed=11,
    churn_rate_per_h=6.0,
    trace=True,
)
EVERY_S = 1800.0


def _checkpointed(tmp_path, config, name, **overrides):
    kwargs = dict(KW)
    kwargs.update(overrides)
    ckdir = tmp_path / name
    result = run_scenario(
        config, checkpoint_every_s=EVERY_S, checkpoint_dir=ckdir, **kwargs
    )
    assert result.checkpoints is not None
    assert result.checkpoints.saved, "no checkpoint was ever written"
    return result


class TestDifferentialDeterminism:
    def test_checkpointing_does_not_perturb_the_run(self, tmp_path):
        baseline = run_scenario(s3_policy(), **KW)
        ckpt = _checkpointed(tmp_path, s3_policy(), "ck")
        assert ckpt.trace.trace_hash() == baseline.trace.trace_hash()

    @pytest.mark.parametrize("preset", [s3_policy, hybrid_policy])
    def test_resume_is_byte_identical_centralized(self, tmp_path, preset):
        baseline = run_scenario(preset(), **KW)
        ckpt = _checkpointed(tmp_path, preset(), "ck")
        path, manifest = ckpt.checkpoints.saved[len(ckpt.checkpoints.saved) // 2]
        assert manifest["sim_time_s"] < KW["horizon_s"]
        resumed = resume_scenario(path)
        assert resumed.trace.trace_hash() == baseline.trace.trace_hash()
        assert resumed.report.to_dict() == baseline.report.to_dict()
        outcome = validate_trace(resumed.trace, report=resumed.report)
        assert outcome.ok, outcome.render_text()

    def test_resume_is_byte_identical_neat_plane(self, tmp_path):
        config = s3_policy().with_overrides(
            plane="neat", neat_request_delay_s=30.0, neat_request_dropout=0.1
        )
        baseline = run_scenario(config, **KW)
        ckpt = _checkpointed(tmp_path, config, "neat")
        path, _ = ckpt.checkpoints.saved[2]
        resumed = resume_scenario(path)
        assert resumed.trace.trace_hash() == baseline.trace.trace_hash()
        outcome = validate_trace(resumed.trace, report=resumed.report)
        assert outcome.ok, outcome.render_text()

    def test_resume_with_faults_and_pending_repairs(self, tmp_path):
        fault_model = FaultModel(
            wake_failure_rate=0.3,
            permanent_fraction=0.5,
            repair=RepairModel(mttr_s=1800.0),
        )
        baseline = run_scenario(s3_policy(), fault_model=fault_model, **KW)
        ckpt = _checkpointed(
            tmp_path, s3_policy(), "faults", fault_model=fault_model
        )
        for path, _ in ckpt.checkpoints.saved[1::2]:
            resumed = resume_scenario(path)
            assert resumed.trace.trace_hash() == baseline.trace.trace_hash()

    def test_every_checkpoint_of_one_run_resumes_identically(self, tmp_path):
        baseline = run_scenario(s3_policy(), **KW)
        ckpt = _checkpointed(tmp_path, s3_policy(), "all")
        for path, _ in ckpt.checkpoints.saved:
            resumed = resume_scenario(path)
            assert resumed.trace.trace_hash() == baseline.trace.trace_hash()


class TestRejection:
    def _one_checkpoint(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "rej")
        return ckpt.checkpoints.saved[0][0]

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            resume_scenario(path)

    def test_truncated_manifest_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError, match="truncated"):
            resume_scenario(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            resume_scenario(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        path.write_bytes(b"NOTACKPT\n" + path.read_bytes())
        with pytest.raises(CheckpointError, match="bad magic"):
            resume_scenario(path)

    def test_stale_writer_version_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        raw = path.read_bytes()
        magic, rest = raw.split(b"\n", 1)
        header, payload = rest.split(b"\n", 1)
        manifest = json.loads(header)
        manifest["repro_version"] = "0.0.0-other"
        path.write_bytes(
            magic + b"\n"
            + json.dumps(manifest, sort_keys=True).encode() + b"\n"
            + payload
        )
        with pytest.raises(CheckpointError, match="stale"):
            resume_scenario(path)

    def test_incompatible_schema_rejected(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        raw = path.read_bytes()
        magic, rest = raw.split(b"\n", 1)
        header, payload = rest.split(b"\n", 1)
        manifest = json.loads(header)
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        manifest["schema"] = CHECKPOINT_SCHEMA + 1
        path.write_bytes(
            magic + b"\n"
            + json.dumps(manifest, sort_keys=True).encode() + b"\n"
            + payload
        )
        with pytest.raises(CheckpointError, match="schema"):
            resume_scenario(path)

    def test_pre_channel_checkpoint_refused_by_schema(self, tmp_path, monkeypatch):
        # Schema 1 pickled classes that no longer exist (the neat manager
        # subclass); schema 2 pickled the per-object demand grids that the
        # demand lattice replaced; schema 3 pickled the trace on each plane
        # component and a ManagementLog without one, so a traced resume
        # would drop every plane event; schema 4 pickled trace events
        # under repro.telemetry.trace, which no longer defines them;
        # schema 5 pickled a demand lattice without its rebuild slots;
        # schema 6 pickled each host's latency generator, which a machine
        # now makes on its first jittered transition.  The manifest check
        # must refuse all six before anything is unpickled.
        import repro.core.checkpoint as checkpoint

        path = self._one_checkpoint(tmp_path)
        magic, _, payload = path.read_bytes().split(b"\n", 2)
        manifest = read_manifest(path)

        def unpickled(data):
            raise AssertionError("an old-schema payload was unpickled")

        monkeypatch.setattr(checkpoint, "pickle", type("P", (), {"loads": unpickled}))
        for schema in (1, 2, 3, 4, 5, 6):
            path.write_bytes(
                magic + b"\n"
                + json.dumps(dict(manifest, schema=schema), sort_keys=True).encode()
                + b"\n"
                + payload
            )
            with pytest.raises(
                CheckpointError, match=f"incompatible checkpoint schema {schema}"
            ):
                resume_scenario(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            resume_scenario(tmp_path / "absent.repro")

    def test_manifest_carries_runner_metadata(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        manifest = read_manifest(path)
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        assert manifest["policy"] == s3_policy().name
        assert manifest["seed"] == KW["seed"]
        assert manifest["horizon_s"] == KW["horizon_s"]
        assert len(manifest["sha256"]) == 64


class TestStreaming:
    def test_stream_resume_heals_torn_tail_byte_identically(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        run_scenario(s3_policy(), stream=ref, **KW)
        golden = ref.read_bytes()

        live = tmp_path / "live.jsonl"
        ckpt = _checkpointed(tmp_path, s3_policy(), "stream", stream=live)
        assert live.read_bytes() == golden
        path, manifest = ckpt.checkpoints.saved[2]
        assert manifest["stream_offset"] > 0
        # Simulate a crash after the checkpoint: a torn half-record.
        with open(live, "ab") as fh:
            fh.write(b'{"window": 999, "t": 1e9, "ju')
        resume_scenario(path, stream=live)
        assert live.read_bytes() == golden

    def test_stream_resume_requires_recorded_offset(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "nostream")
        path, _ = ckpt.checkpoints.saved[0]
        with pytest.raises(ValueError, match="stream"):
            resume_scenario(path, stream=tmp_path / "late.jsonl")

    def test_stream_windows_are_sorted_json_lines(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run_scenario(s3_policy(), stream=out, **KW)
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "repro-stream"
        windows = [json.loads(line) for line in lines[1:]]
        assert [w["window"] for w in windows] == list(range(len(windows)))
        assert all("power_w" in w and "shortfall_cores" in w for w in windows)


class TestBoundedSeries:
    def test_bounded_report_matches_full_series(self):
        full = run_scenario(s3_policy(), **KW)
        bounded = run_scenario(s3_policy(), bounded_series=True, **KW)
        ref = full.report.to_dict()
        got = bounded.report.to_dict()
        assert set(ref) == set(got)
        for key, want in ref.items():
            have = got[key]
            if isinstance(want, float):
                assert have == pytest.approx(want, rel=1e-9), key
            else:
                assert have == want, key

    def test_bounded_series_keeps_no_samples(self):
        bounded = run_scenario(s3_policy(), bounded_series=True, **KW)
        series = bounded.sampler.series["power_w"]
        assert len(series._times) == 0
        assert len(series) > 0
        with pytest.raises(RuntimeError, match="no samples"):
            series.values
        # The trace is unaffected by the series representation.
        full = run_scenario(s3_policy(), **KW)
        assert bounded.trace.trace_hash() == full.trace.trace_hash()


class TestBranch:
    def test_branch_fans_warm_state_across_policies(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "branch")
        path, manifest = ckpt.checkpoints.saved[2]
        for preset in (s5_policy, hybrid_policy):
            result = resume_scenario(path, config=preset())
            assert result.report.policy == preset().name
            # The branch continues the parent horizon from the snapshot.
            assert result.env.now == KW["horizon_s"]

    def test_branch_same_policy_reproduces_parent(self, tmp_path):
        baseline = run_scenario(s3_policy(), **KW)
        ckpt = _checkpointed(tmp_path, s3_policy(), "same")
        path, _ = ckpt.checkpoints.saved[1]
        result = resume_scenario(path, config=s3_policy())
        assert result.trace.trace_hash() == baseline.trace.trace_hash()

    def test_branch_rejects_plane_mismatch(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "plane")
        path, _ = ckpt.checkpoints.saved[0]
        neat = s3_policy().with_overrides(plane="neat")
        with pytest.raises(CheckpointError, match="plane"):
            resume_scenario(path, config=neat)

    def test_branch_scenarios_fan_out_matches_single_branches(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "fan")
        path, _ = ckpt.checkpoints.saved[0]
        configs = [s5_policy(), hybrid_policy()]
        cache = ResultCache(tmp_path / "cache")
        fanned = branch_scenarios(path, configs, workers=2, cache=cache)
        single = [resume_scenario(path, config=config) for config in configs]
        assert [a.report.to_dict() for a in fanned] == [
            r.report.to_dict() for r in single
        ]
        assert cache.misses == len(configs)
        warm_cache = ResultCache(tmp_path / "cache")
        warm = branch_scenarios(path, configs, workers=2, cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (len(configs), 0)
        assert [a.report.to_dict() for a in warm] == [
            a.report.to_dict() for a in fanned
        ]

    def test_branch_extends_horizon(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "long")
        path, _ = ckpt.checkpoints.saved[0]
        result = resume_scenario(
            path, config=s5_policy(), horizon_s=4 * 3600.0
        )
        assert result.env.now == 4 * 3600.0

    def test_branch_horizon_must_follow_the_checkpoint(self, tmp_path):
        ckpt = _checkpointed(tmp_path, s3_policy(), "early")
        path, manifest = ckpt.checkpoints.saved[1]
        with pytest.raises(ValueError, match="not after the checkpoint"):
            resume_scenario(path, horizon_s=manifest["sim_time_s"])
