"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "S3-PM"
        assert args.hosts == 16

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "Bogus"])

    def test_compare_accepts_policy_list(self):
        args = build_parser().parse_args(
            ["compare", "--policies", "AlwaysOn,S3-PM"]
        )
        assert args.policies == "AlwaysOn,S3-PM"


class TestCommands:
    def test_characterize_prints_table(self, capsys):
        assert main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "sleep" in out
        assert "brkeven" in out
        assert "normalized energy vs idle gap" in out

    def test_policies_lists_presets(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("AlwaysOn", "S3-PM", "S5-PM", "Hybrid", "DVFS-only"):
            assert name in out

    def test_run_small_scenario(self, capsys):
        code = main(
            ["run", "--policy", "S3-PM", "--hosts", "4", "--vms", "12",
             "--hours", "2", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "S3-PM" in out
        assert "kWh" in out

    def test_run_profile_writes_json_artifact(self, tmp_path, capsys):
        import json as json_mod

        artifact = tmp_path / "prof.json"
        code = main(
            ["run", "--policy", "S3-PM", "--hosts", "4", "--vms", "8",
             "--hours", "1", "--profile", "--profile-json", str(artifact)]
        )
        assert code == 0
        capsys.readouterr()
        payload = json_mod.loads(artifact.read_text())
        assert payload["wall_clock_s"] > 0
        assert payload["total_calls"] > 0
        top = payload["top_cumulative"]
        assert 0 < len(top) <= 25
        # Rows carry the fields a cross-PR diff needs, sorted by cumtime.
        assert all(
            {"function", "ncalls", "tottime_s", "cumtime_s"} <= set(row)
            for row in top
        )
        cums = [row["cumtime_s"] for row in top]
        assert cums == sorted(cums, reverse=True)

    def test_run_with_timeline(self, capsys):
        main(
            ["run", "--hosts", "4", "--vms", "8", "--hours", "1", "--timeline"]
        )
        out = capsys.readouterr().out
        assert "demand_cores" in out
        assert "power_w" in out

    def test_run_with_wake_latency_override(self, capsys):
        code = main(
            ["run", "--hosts", "4", "--vms", "8", "--hours", "1",
             "--wake-latency", "60"]
        )
        assert code == 0

    def test_run_with_fault_injection(self, capsys):
        code = main(
            ["run", "--hosts", "4", "--vms", "8", "--hours", "2",
             "--wake-failure-rate", "0.2"]
        )
        assert code == 0

    def test_compare_prints_normalized_table(self, capsys):
        code = main(
            ["compare", "--policies", "AlwaysOn,S3-PM", "--hosts", "4",
             "--vms", "12", "--hours", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized to AlwaysOn" in out
        assert "S3-PM" in out

    def test_compare_unknown_policy_is_usage_error(self, capsys):
        code = main(
            ["compare", "--policies", "S3-PM,Bogus", "--hosts", "2",
             "--vms", "4", "--hours", "1"]
        )
        assert code == 2
        assert "must name presets" in capsys.readouterr().err


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json as json_mod

        code = main(
            ["run", "--hosts", "4", "--vms", "8", "--hours", "1", "--json"]
        )
        assert code == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["policy"] == "S3-PM"
        assert payload["energy_kwh"] > 0
        assert "extra.reactive_wakes" in payload

    def test_compare_json_is_list(self, capsys):
        import json as json_mod

        main(
            ["compare", "--policies", "AlwaysOn,S3-PM", "--hosts", "4",
             "--vms", "8", "--hours", "1", "--json"]
        )
        payload = json_mod.loads(capsys.readouterr().out)
        assert [p["policy"] for p in payload] == ["AlwaysOn", "S3-PM"]


class TestTrace:
    SMALL = ["--hosts", "3", "--vms", "6", "--hours", "1", "--seed", "2"]

    def test_trace_streams_jsonl_to_stdout(self, capsys):
        import json as json_mod

        from repro.telemetry import TRACE_SCHEMA_VERSION

        code = main(["trace", "S3-PM"] + self.SMALL)
        assert code == 0
        out, err = capsys.readouterr()
        header = json_mod.loads(out.splitlines()[0])
        assert header["trace"] == TRACE_SCHEMA_VERSION
        assert header["label"] == "S3-PM"
        # The verdict goes to stderr so stdout stays pipeable JSONL.
        assert "0 violation(s)" in err

    def test_trace_out_then_check_round_trips(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        code = main(["trace", "S3-PM", "--out", str(target)] + self.SMALL)
        assert code == 0
        assert "sha256" in capsys.readouterr().out
        code = main(["trace", "check", str(target)])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_trace_check_flags_a_doctored_trace(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        main(["trace", "S3-PM", "--out", str(target)] + self.SMALL)
        capsys.readouterr()
        lines = target.read_text().splitlines()
        # Drop the run-end record: the reconciliation must notice.
        doctored = [l for l in lines if '"event":"run-end"' not in l]
        assert len(doctored) == len(lines) - 1
        target.write_text("\n".join(doctored) + "\n")
        code = main(["trace", "check", str(target)])
        assert code == 1
        assert "run-end" in capsys.readouterr().out

    def test_trace_check_requires_a_path(self, capsys):
        assert main(["trace", "check"]) == 2
        capsys.readouterr()

    def test_trace_check_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["trace", "check", str(tmp_path / "absent.jsonl")])
        assert code == 2
        capsys.readouterr()

    def test_trace_unknown_policy_is_usage_error(self, capsys):
        assert main(["trace", "Bogus"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_trace_stray_path_is_usage_error(self, tmp_path, capsys):
        code = main(["trace", "S3-PM", str(tmp_path / "x.jsonl")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--out", "x.jsonl"],
            ["--hosts", "999"],
            ["--vms", "5"],
            ["--hours", "2"],
            ["--seed", "3"],
            ["--churn", "5"],
            ["--shared-fraction", "0.5"],
            ["--wake-latency", "1.5"],
            ["--wake-failure-rate", "0.1"],
            ["--plane", "neat"],
            ["--plane-delay-s", "30"],
            ["--plane-dropout", "0.2"],
            # A flag given at its parser default is still a flag given.
            pytest.param(["--hosts", "16"], id="--hosts-at-default"),
            pytest.param(["--seed", "0"], id="--seed-at-default"),
            pytest.param(["--plane", "centralized"], id="--plane-at-default"),
        ],
        ids=lambda flag: flag[0],
    )
    def test_trace_check_run_only_flag_is_usage_error(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "trace_small.jsonl"
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "check", str(golden)] + flag) == 2
        out, err = capsys.readouterr()
        assert flag[0] in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_trace_check_json_payload(self, tmp_path, capsys):
        import json as json_mod

        target = tmp_path / "t.jsonl"
        main(["trace", "S3-PM", "--out", str(target)] + self.SMALL)
        capsys.readouterr()
        code = main(["trace", "check", str(target), "--json"])
        assert code == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["path"] == str(target)


class TestOutputFlags:
    """A verb takes only the output flags it reads."""

    SMALL = ["--hosts", "3", "--vms", "6", "--hours", "1", "--seed", "2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "S3-PM", "--timeline"],
            ["trace", "S3-PM", "--profile"],
            ["trace", "S3-PM", "--profile-json", "p.json"],
            ["faults", "S3-PM", "--timeline"],
            ["faults", "S3-PM", "--profile"],
            ["faults", "S3-PM", "--profile-json", "p.json"],
            ["chaos", "S3-PM", "--timeline"],
            ["chaos", "S3-PM", "--profile"],
            ["chaos", "S3-PM", "--profile-json", "p.json"],
            ["compare", "--timeline"],
        ],
        ids=lambda argv: argv[0] + [a for a in argv if a.startswith("--")][-1],
    )
    def test_unread_output_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + self.SMALL)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_trace_run_json_is_usage_error(self, capsys):
        assert main(["trace", "S3-PM", "--json"] + self.SMALL) == 2
        assert "--json" in capsys.readouterr().err


class TestVersionedJson:
    SMALL = ["--hosts", "3", "--vms", "6", "--hours", "1", "--seed", "2"]

    def test_faults_json_carries_version_and_seed(self, capsys):
        import json as json_mod

        import repro

        code = main(
            ["faults", "S3-PM", "--rate", "0,0.1", "--no-cache", "--json"]
            + self.SMALL
        )
        assert code == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["version"] == repro.__version__
        assert payload["seed"] == 2
        assert payload["rates"] == [0.0, 0.1]
        assert len(payload["results"]) == 2

    def test_chaos_json_carries_version_seed_and_hash(self, capsys):
        import json as json_mod

        import repro

        code = main(["chaos", "S3-PM", "--json"] + self.SMALL)
        assert code == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["version"] == repro.__version__
        assert payload["seed"] == 2
        assert len(payload["trace_hash"]) == 64
        assert "trace_check" in payload


class TestTraceWrittenOnce:
    """A written trace is encoded once, and its printed sha256 is the file's."""

    SMALL = ["--hosts", "3", "--vms", "6", "--hours", "1", "--seed", "2"]

    def _encodes(self, monkeypatch):
        from repro.telemetry import TraceBuffer

        calls = []
        to_jsonl = TraceBuffer.to_jsonl

        def counted(self):
            calls.append(1)
            return to_jsonl(self)

        monkeypatch.setattr(TraceBuffer, "to_jsonl", counted)
        return calls

    def test_trace_out(self, tmp_path, capsys, monkeypatch):
        import hashlib

        target = tmp_path / "t.jsonl"
        calls = self._encodes(monkeypatch)
        assert main(["trace", "S3-PM", "--out", str(target)] + self.SMALL) == 0
        assert len(calls) == 1
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert "(sha256 {})".format(digest) in capsys.readouterr().out

    def test_chaos_out_json(self, tmp_path, capsys, monkeypatch):
        import hashlib
        import json as json_mod

        target = tmp_path / "c.jsonl"
        calls = self._encodes(monkeypatch)
        code = main(["chaos", "S3-PM", "--out", str(target), "--json"] + self.SMALL)
        assert code == 0
        assert len(calls) == 1
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        wrote, _, payload = capsys.readouterr().out.partition("\n")
        assert wrote.endswith("(sha256 {})".format(digest))
        assert json_mod.loads(payload)["trace_hash"] == digest


class TestFuzz:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.action == "campaign"
        assert args.campaign == 100
        assert args.seed == 0

    def test_small_campaign_json_is_deterministic(self, capsys):
        import json as json_mod

        code = main(
            ["fuzz", "--campaign", "3", "--seed", "11", "--no-cache", "--json"]
        )
        first = capsys.readouterr().out
        assert code in (0, 1)
        again = main(
            ["fuzz", "--campaign", "3", "--seed", "11", "--no-cache", "--json"]
        )
        assert again == code
        assert capsys.readouterr().out == first
        payload = json_mod.loads(first)
        assert payload["format"] == "repro-fuzz-summary-v1"
        assert payload["campaign"] == 3
        assert payload["seed"] == 11
        assert len(payload["outcomes"]) == 3
        assert set(payload["counts"]) == {"certified", "violating", "error"}

    def test_campaign_summary_written_to_file(self, tmp_path, capsys):
        import json as json_mod

        out = tmp_path / "summary.json"
        code = main(
            ["fuzz", "--campaign", "2", "--seed", "11", "--no-cache",
             "--out", str(out)]
        )
        assert code in (0, 1)
        capsys.readouterr()
        payload = json_mod.loads(out.read_text())
        assert payload["campaign"] == 2

    def test_shrink_corpus_entry_is_fixpoint(self, capsys):
        from pathlib import Path

        corpus = sorted(
            (Path(__file__).parent / "corpus").glob("behavior-*.json")
        )
        code = main(["fuzz", "shrink", str(corpus[0]), "--no-cache", "--json"])
        assert code == 0
        import json as json_mod

        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["reductions"] == 0

    def test_shrink_requires_a_path(self, capsys):
        assert main(["fuzz", "shrink"]) == 2
        assert "required" in capsys.readouterr().err

    def test_shrink_rejects_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fuzz", "shrink", str(bad)]) == 2
        capsys.readouterr()

    def test_unknown_action_is_usage_error(self, capsys):
        assert main(["fuzz", "frobnicate"]) == 2
        assert "unknown action" in capsys.readouterr().err

    def test_stray_path_with_campaign_is_usage_error(self, tmp_path, capsys):
        code = main(["fuzz", "campaign", str(tmp_path / "x.json")])
        assert code == 2
        capsys.readouterr()
