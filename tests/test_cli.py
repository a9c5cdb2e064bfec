"""Tests for the command-line interface.

``run`` and ``compare`` are driven over two tables: good flag
combinations, each with the output shape it must print, and bad ones,
each with the flag or choice its usage error must name.  The mapping
tests build the scenarios of the removed ``chaos`` and ``faults`` verbs
by hand from the library and check that the command line reproduces
them.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.telemetry import SimReport

SMALL = ["--hosts", "3", "--vms", "6", "--hours", "1", "--seed", "2"]
GOLDEN = Path(__file__).parent / "golden" / "trace_small.jsonl"
#: The degraded-plane flags at the defaults of the removed ``chaos`` verb.
CHAOS = ["--migration-fail-rate", "0.1", "--telemetry-staleness-s", "60"]


@pytest.fixture
def refused(tmp_path, monkeypatch, capsys):
    """Check that argparse refuses an invocation before anything runs.

    The command runs in an empty directory.  It must exit 2, name
    ``needle`` on stderr, print nothing on stdout and write no file.
    """
    monkeypatch.chdir(tmp_path)

    def check(argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert needle in err, err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    return check


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _wrote(line, path):
    """The ``wrote N event(s) to FILE (sha256 …)`` line names ``path``'s hash."""
    assert line.startswith("wrote ")
    assert line.endswith("to {} (sha256 {})".format(path, _sha256(path)))


# -- (a) good combinations: the exit code and the output shape ----------


def report_table(out):
    lines = out.splitlines()
    assert lines[0] == SimReport.header()
    assert lines[1].split()[0] == "S3-PM"


def timeline(out):
    report_table(out)
    for name in ("demand_cores", "active_hosts", "power_w"):
        assert name in out


def report_json(out):
    payload = json.loads(out)
    assert payload["policy"] == "S3-PM"
    assert payload["energy_kwh"] > 0
    assert payload["version"] == repro.__version__
    assert payload["seed"] == 2
    assert "trace_hash" not in payload


def traced_table(out):
    wrote, _, rest = out.partition("\n")
    _wrote(wrote, "t.jsonl")
    report_table(rest)
    assert rest.splitlines()[-1].startswith("trace check: 0 violation(s)")


def traced_json(out):
    wrote, _, rest = out.partition("\n")
    _wrote(wrote, "t.jsonl")
    payload = json.loads(rest)
    assert payload["seed"] == 2
    assert payload["trace_hash"] == _sha256("t.jsonl")
    assert payload["trace_check"]["ok"] is True
    assert payload["trace_check"]["violations"] == []


def comparison(out):
    lines = out.splitlines()
    assert lines[0] == SimReport.header()
    assert [line.split()[0] for line in lines[1:5]] == [
        "AlwaysOn", "AlwaysOn", "S3-PM", "S3-PM"
    ]
    assert "normalized to AlwaysOn" in out
    assert "wake_failure_rate" in out


def comparison_json(out):
    payload = json.loads(out)
    assert set(payload) == {"version", "seed", "rates", "results"}
    assert payload["version"] == repro.__version__
    assert payload["seed"] == 2
    assert payload["rates"] == [0.0, 0.1]
    # Grouped by policy: every rate of the first policy, then the next.
    assert [r["policy"] for r in payload["results"]] == [
        "AlwaysOn", "AlwaysOn", "S3-PM", "S3-PM"
    ]


TWO_BY_TWO = ["--policies", "AlwaysOn,S3-PM", "--wake-failure-rate", "0,0.1",
              "--no-cache"]

GOOD = [
    pytest.param(["run"], report_table, id="run"),
    pytest.param(["run", "--json"], report_json, id="run-json"),
    pytest.param(["run", "--timeline"], timeline, id="run-timeline"),
    pytest.param(["run", "--out", "t.jsonl"], traced_table, id="run-out"),
    pytest.param(["run", "--out", "t.jsonl", "--json"], traced_json,
                 id="run-out-json"),
    pytest.param(["run", "--out", "t.jsonl", "--timeline"], traced_table,
                 id="run-out-timeline"),
    pytest.param(["run", "--wake-failure-rate", "0.3", "--permanent-fraction",
                  "0.5", "--mttr-h", "1", "--out", "t.jsonl"], traced_table,
                 id="run-wake-faults"),
    pytest.param(["run", *CHAOS, "--telemetry-dropout", "0.1", "--out",
                  "t.jsonl", "--json"], traced_json, id="run-chaos"),
    pytest.param(["run", "--plane", "neat", "--plane-delay-s", "120",
                  "--plane-dropout", "0.2", "--out", "t.jsonl"], traced_table,
                 id="run-neat"),
    pytest.param(["compare", *TWO_BY_TWO], comparison, id="compare-rates"),
    pytest.param(["compare", *TWO_BY_TWO, "--json"], comparison_json,
                 id="compare-rates-json"),
]


@pytest.mark.parametrize("argv, shape", GOOD)
def test_good_invocation(argv, shape, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + SMALL) == 0
    shape(capsys.readouterr().out)


# -- (b) bad combinations: exit 2, naming the flag, before anything runs -


BAD = [
    # Out of range: each used to raise a traceback or run with the
    # value dropped.
    (["run", "--wake-failure-rate", "1.5"], "argument --wake-failure-rate"),
    (["run", "--wake-failure-rate", "-0.5"], "argument --wake-failure-rate"),
    (["run", "--shared-fraction", "2"], "argument --shared-fraction"),
    (["run", "--wake-latency", "-5"], "argument --wake-latency"),
    (["run", "--vms", "0"], "argument --vms"),
    (["run", "--hosts", "x"], "argument --hosts"),
    (["run", "--hours", "0"], "argument --hours"),
    (["run", "--hours", "nan"], "argument --hours"),
    (["run", "--seed", "-1"], "argument --seed"),
    (["run", "--churn", "-3"], "argument --churn"),
    (["run", "--plane-delay-s", "-30"], "argument --plane-delay-s"),
    (["run", "--plane-dropout", "-0.2"], "argument --plane-dropout"),
    (["run", "--plane-dropout", "1.5"], "argument --plane-dropout"),
    (["run", "--permanent-fraction", "2"], "argument --permanent-fraction"),
    (["run", "--mttr-h", "-1"], "argument --mttr-h"),
    (["run", "--migration-fail-rate", "1"], "argument --migration-fail-rate"),
    (["run", "--telemetry-staleness-s", "-60"],
     "argument --telemetry-staleness-s"),
    (["run", "--telemetry-dropout", "1"], "argument --telemetry-dropout"),
    (["run", "--checkpoint-every-s", "0"], "argument --checkpoint-every-s"),
    # Shorter than one 60 s trace sample: nothing to draw a fleet from.
    (["run", "--hours", "0.01"], "argument --hours"),
    (["compare", "--hours", "0.01"], "argument --hours"),
    (["compare", "--hosts", "0"], "argument --hosts"),
    (["compare", "--wake-failure-rate", "1.5"], "argument --wake-failure-rate"),
    (["compare", "--wake-failure-rate", "0,1.5"], "argument --wake-failure-rate"),
    (["compare", "--wake-failure-rate", ","], "argument --wake-failure-rate"),
    (["compare", "--permanent-fraction", "2"], "argument --permanent-fraction"),
    (["compare", "--workers", "0"], "argument --workers"),
    # Each used to run: run_scenarios clamped the workers to 1, and a
    # budget below 1 shrank nothing.  A campaign of 0 exited 2 without
    # naming the flag.
    (["fuzz", "--workers", "-2"], "argument --workers"),
    (["fuzz", "--workers", "0"], "argument --workers"),
    (["fuzz", "--shrink-budget", "-5"], "argument --shrink-budget"),
    (["fuzz", "--campaign", "0"], "argument --campaign"),
    # Ran and printed "campaign seed -1"; run and compare refused it.
    (["fuzz", "--campaign", "1", "--seed", "-1"], "argument --seed"),
    (["branch", "ck.repro", "--hours", "-1"], "argument --hours"),
    # Contradictory pairs.
    (["run", "--bounded", "--timeline"], "argument --timeline"),
    (["run", "--checkpoint-every-s", "600"], "argument --checkpoint-every-s"),
    (["run", "--out", "t.jsonl", "--resume", "ck.repro"], "argument --resume"),
    # A flag the verb does not take (TestTrace covers ``trace check``).
    (["compare", "--out", "t.jsonl"], "unrecognized arguments: --out"),
    # The removed verbs.
    (["trace", "S3-PM", "--out", "t.jsonl"], "invalid choice: 'S3-PM'"),
    (["chaos", "S3-PM"], "invalid choice: 'chaos'"),
    (["faults", "S3-PM", "--rate", "0,0.1"], "invalid choice: 'faults'"),
]


@pytest.mark.parametrize("argv, needle", BAD, ids=[" ".join(argv) for argv, _ in BAD])
def test_bad_invocation_is_usage_error(argv, needle, refused):
    refused(argv, needle)


@pytest.mark.parametrize("env", ["0", "-4", "x"])
def test_compare_bad_repro_workers_is_usage_error(env, tmp_path, monkeypatch, capsys):
    # It used to end in a ValueError traceback (exit 1); branch and fuzz
    # exit 2 with the same message.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_WORKERS", env)
    monkeypatch.setattr(
        "repro.cli.run_scenarios", lambda *a, **kw: pytest.fail("compare ran")
    )
    argv = ["compare", "--hosts", "4", "--vms", "8", "--hours", "1", "--no-cache"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == "repro compare: REPRO_WORKERS must be an integer >= 1, got {!r}\n".format(env)
    assert out == ""
    assert list(tmp_path.iterdir()) == []


# -- (c) the removed verbs' scenarios, built by hand --------------------


class TestRemovedVerbMapping:
    """``run`` and ``compare`` build the scenarios ``chaos`` and ``faults`` built."""

    SHAPE = ["--hosts", "4", "--vms", "12", "--hours", "6", "--seed", "2"]

    @staticmethod
    def _scenario(hours, seed, **kwargs):
        """``run_scenario``'s arguments for ``--hosts 4 --vms 12``."""
        from repro.workload import FleetSpec

        horizon_s = hours * 3600.0
        return dict(
            n_hosts=4,
            horizon_s=horizon_s,
            seed=seed,
            fleet_spec=FleetSpec(n_vms=12, horizon_s=horizon_s, shared_fraction=0.3),
            **kwargs,
        )

    def test_chaos_is_run_with_a_migration_fault_and_staleness_model(
        self, tmp_path, capsys
    ):
        from repro.core import run_scenario, s3_policy
        from repro.datacenter import FaultModel, MigrationFaultModel
        from repro.telemetry import StalenessModel

        result = run_scenario(
            s3_policy(),
            trace=True,
            **self._scenario(
                6.0,
                2,
                fault_model=FaultModel(migration=MigrationFaultModel(0.1)),
                telemetry_model=StalenessModel(60.0, 0.0),
            ),
        )
        target = tmp_path / "t.jsonl"
        assert main(["run", *CHAOS, "--out", str(target), "--json"] + self.SHAPE) == 0
        payload = json.loads(capsys.readouterr().out.partition("\n")[2])
        expected = result.report.to_dict()
        assert expected["extra.migrations_failed"] > 0
        assert {key: payload[key] for key in expected} == expected
        assert _sha256(target) == payload["trace_hash"] == result.trace.trace_hash()

    def test_faults_is_compare_over_wake_failure_rates(self, capsys):
        from repro.core import run_scenario, s3_policy
        from repro.datacenter import FaultModel, RepairModel

        def scenario(rate):
            kwargs = self._scenario(12.0, 0, churn_rate_per_h=2.0)
            if rate > 0:
                kwargs["fault_model"] = FaultModel(
                    rate, 0.2, RepairModel(mttr_s=4 * 3600.0)
                )
            return run_scenario(s3_policy(), **kwargs).report.to_dict()

        expected = [scenario(0.0), scenario(0.5)]
        assert expected[1]["extra.hosts_repaired"] > 0
        code = main(
            ["compare", "--policies", "S3-PM", "--wake-failure-rate", "0,0.5",
             "--permanent-fraction", "0.2", "--mttr-h", "4", "--hosts", "4",
             "--vms", "12", "--hours", "12", "--churn", "2", "--seed", "0",
             "--workers", "1", "--no-cache", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "version": repro.__version__,
            "seed": 0,
            "rates": [0.0, 0.5],
            "results": expected,
        }


# -- (d) a written trace is encoded once --------------------------------


class TestTraceWrittenOnce:
    """A written trace is encoded once, and its printed sha256 is the file's."""

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
        target = tmp_path / "t.jsonl"
        calls = self._encodes(monkeypatch)
        assert main(["run", "--out", str(target)] + SMALL) == 0
        assert len(calls) == 1
        _wrote(capsys.readouterr().out.splitlines()[0], target)

    def test_chaos_out_json(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "c.jsonl"
        calls = self._encodes(monkeypatch)
        code = main(["run", *CHAOS, "--out", str(target), "--json"] + SMALL)
        assert code == 0
        assert len(calls) == 1
        wrote, _, payload = capsys.readouterr().out.partition("\n")
        _wrote(wrote, target)
        assert json.loads(payload)["trace_hash"] == _sha256(target)


# -- the other verbs, and parser defaults -------------------------------


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "S3-PM"
        assert args.hosts == 16
        # Every model flag defaults to the library's "off" value.
        assert args.wake_failure_rate == 0.0
        assert args.permanent_fraction == args.mttr_h == 0.0
        assert args.migration_fail_rate == 0.0
        assert args.telemetry_staleness_s == args.telemetry_dropout == 0.0
        assert args.out is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "Bogus"])

    def test_compare_accepts_policy_list(self):
        args = build_parser().parse_args(
            ["compare", "--policies", "AlwaysOn,S3-PM"]
        )
        assert [config.name for config in args.policies] == ["AlwaysOn", "S3-PM"]
        assert args.wake_failure_rate == [0.0]


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
        artifact = tmp_path / "prof.json"
        code = main(
            ["run", "--policy", "S3-PM", "--hosts", "4", "--vms", "8",
             "--hours", "1", "--profile", "--profile-json", str(artifact)]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
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
             "--vms", "12", "--hours", "2", "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized to AlwaysOn" in out
        assert "S3-PM" in out

    def test_compare_unknown_policy_is_usage_error(self, refused):
        refused(
            ["compare", "--policies", "S3-PM,Bogus", "--hosts", "2",
             "--vms", "4", "--hours", "1"],
            "must name presets",
        )


class TestJsonOutput:
    def test_run_json(self, capsys):
        code = main(
            ["run", "--hosts", "4", "--vms", "8", "--hours", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "S3-PM"
        assert payload["energy_kwh"] > 0
        assert "extra.reactive_wakes" in payload

    def test_compare_json_is_an_object(self, capsys):
        main(
            ["compare", "--policies", "AlwaysOn,S3-PM", "--hosts", "4",
             "--vms", "8", "--hours", "1", "--no-cache", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["rates"] == [0.0]
        assert [p["policy"] for p in payload["results"]] == ["AlwaysOn", "S3-PM"]


class TestCheckpointed:
    """``run --resume`` and ``branch`` continue a checkpoint ``run`` wrote."""

    @pytest.fixture
    def checkpoint(self, tmp_path, capsys):
        directory = tmp_path / "ck"
        code = main(
            ["run", "--hosts", "3", "--vms", "6", "--hours", "2", "--seed", "5",
             "--checkpoint-every-s", "3600", "--checkpoint-dir", str(directory)]
        )
        assert code == 0
        capsys.readouterr()
        return str(sorted(directory.glob("ckpt-*.repro"))[0])

    def test_resumed_run_reports_the_checkpoint_seed(self, checkpoint, capsys):
        # Not --seed's default: the seed the resumed run actually uses.
        assert main(["run", "--resume", checkpoint, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_branch_horizon_before_the_checkpoint_is_usage_error(
        self, checkpoint, capsys
    ):
        code = main(
            ["branch", checkpoint, "--hours", "0.5", "--workers", "1", "--no-cache"]
        )
        assert code == 2
        assert "not after the checkpoint" in capsys.readouterr().err


class TestTrace:
    """``trace check FILE [--json]``: the trace verb takes nothing else."""

    def _write(self, target, capsys):
        assert main(["run", "--out", str(target)] + SMALL) == 0
        capsys.readouterr()

    def test_trace_out_then_check_round_trips(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        code = main(["run", "--out", str(target)] + SMALL)
        assert code == 0
        assert "sha256" in capsys.readouterr().out
        code = main(["trace", "check", str(target)])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_trace_check_flags_a_doctored_trace(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        self._write(target, capsys)
        lines = target.read_text().splitlines()
        # Drop the run-end record: the reconciliation must notice.
        doctored = [l for l in lines if '"event":"run-end"' not in l]
        assert len(doctored) == len(lines) - 1
        target.write_text("\n".join(doctored) + "\n")
        code = main(["trace", "check", str(target)])
        assert code == 1
        assert "run-end" in capsys.readouterr().out

    def test_trace_check_requires_a_path(self, refused):
        refused(["trace", "check"], "path")

    def test_trace_check_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["trace", "check", str(tmp_path / "absent.jsonl")])
        assert code == 2
        capsys.readouterr()

    def test_trace_unknown_policy_is_usage_error(self, refused):
        # ``trace POLICY`` is gone: a policy name is an invalid action.
        refused(["trace", "Bogus"], "invalid choice: 'Bogus'")

    def test_trace_stray_path_is_usage_error(self, refused):
        refused(["trace", "S3-PM", "x.jsonl"], "invalid choice: 'S3-PM'")

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
            ["--permanent-fraction", "0.2"],
            ["--mttr-h", "4"],
            ["--migration-fail-rate", "0.1"],
            ["--telemetry-staleness-s", "60"],
            ["--telemetry-dropout", "0.1"],
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
    def test_trace_check_run_only_flag_is_usage_error(self, flag, refused):
        refused(["trace", "check", str(GOLDEN)] + flag, flag[0])

    def test_trace_check_json_payload(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        self._write(target, capsys)
        code = main(["trace", "check", str(target), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["path"] == str(target)


class TestOutputFlags:
    """A verb takes only the output flags it reads; a removed verb takes none."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            pytest.param(["trace", "S3-PM", "--timeline"], "'S3-PM'",
                         id="trace--timeline"),
            pytest.param(["trace", "S3-PM", "--profile"], "'S3-PM'",
                         id="trace--profile"),
            pytest.param(["trace", "S3-PM", "--profile-json", "p.json"],
                         "'S3-PM'", id="trace--profile-json"),
            pytest.param(["faults", "S3-PM", "--timeline"], "'faults'",
                         id="faults--timeline"),
            pytest.param(["faults", "S3-PM", "--profile"], "'faults'",
                         id="faults--profile"),
            pytest.param(["faults", "S3-PM", "--profile-json", "p.json"],
                         "'faults'", id="faults--profile-json"),
            pytest.param(["chaos", "S3-PM", "--timeline"], "'chaos'",
                         id="chaos--timeline"),
            pytest.param(["chaos", "S3-PM", "--profile"], "'chaos'",
                         id="chaos--profile"),
            pytest.param(["chaos", "S3-PM", "--profile-json", "p.json"],
                         "'chaos'", id="chaos--profile-json"),
            pytest.param(["compare", "--timeline"], "--timeline",
                         id="compare--timeline"),
        ],
    )
    def test_unread_output_flag_is_usage_error(self, argv, needle, refused):
        refused(argv + SMALL, needle)

    def test_trace_run_json_is_usage_error(self, refused):
        refused(["trace", "S3-PM", "--json"] + SMALL, "invalid choice: 'S3-PM'")


class TestVersionedJson:
    def test_faults_json_carries_version_and_seed(self, capsys):
        code = main(
            ["compare", "--policies", "S3-PM", "--wake-failure-rate", "0,0.1",
             "--no-cache", "--json"]
            + SMALL
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == repro.__version__
        assert payload["seed"] == 2
        assert payload["rates"] == [0.0, 0.1]
        assert len(payload["results"]) == 2

    def test_chaos_json_carries_version_seed_and_hash(self, tmp_path, capsys):
        code = main(
            ["run", *CHAOS, "--out", str(tmp_path / "c.jsonl"), "--json"] + SMALL
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.partition("\n")[2])
        assert payload["version"] == repro.__version__
        assert payload["seed"] == 2
        assert len(payload["trace_hash"]) == 64
        assert "trace_check" in payload


class TestFuzz:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.action == "campaign"
        assert args.campaign == 100
        assert args.seed == 0

    def test_small_campaign_json_is_deterministic(self, capsys):
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
        payload = json.loads(first)
        assert payload["format"] == "repro-fuzz-summary-v1"
        assert payload["campaign"] == 3
        assert payload["seed"] == 11
        assert len(payload["outcomes"]) == 3
        assert set(payload["counts"]) == {"certified", "violating", "error"}

    def test_campaign_summary_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main(
            ["fuzz", "--campaign", "2", "--seed", "11", "--no-cache",
             "--out", str(out)]
        )
        assert code in (0, 1)
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["campaign"] == 2

    def test_shrink_corpus_entry_is_fixpoint(self, capsys):
        corpus = sorted(
            (Path(__file__).parent / "corpus").glob("behavior-*.json")
        )
        code = main(["fuzz", "shrink", str(corpus[0]), "--no-cache", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
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

    def test_unknown_action_is_usage_error(self, refused):
        refused(["fuzz", "frobnicate"], "invalid choice: 'frobnicate'")

    def test_stray_path_with_campaign_is_usage_error(self, tmp_path, capsys):
        code = main(["fuzz", "campaign", str(tmp_path / "x.json")])
        assert code == 2
        capsys.readouterr()
