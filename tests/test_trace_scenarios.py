"""Scenario-level decision-trace tests.

Three layers ride on the same machinery:

* **Golden regression** — one pinned seeded scenario whose JSONL trace
  must stay byte-identical to ``tests/golden/trace_small.jsonl``.  Any
  behavioural drift in the manager, power machine, migration engine, or
  churn stream shows up as a diff.  Regenerate deliberately with
  ``pytest --update-golden`` and commit the new file with the change.
* **Policy / property sweeps** — every shipped policy, and randomly
  drawn churn/fault schedules (stdlib ``random`` seeded, so the sweep
  itself is reproducible), must produce traces the invariant checker
  certifies.
* **Watchdog payloads** — reactive wakes must surface as structured
  ``watchdog-wake`` events carrying the triggering shortfall, one per
  wake ``ManagementLog.reactive_wakes`` counts.
"""

import random
from pathlib import Path

import pytest

from repro.core import (
    ManagerConfig,
    POLICIES,
    PowerAwareManager,
    run_scenario,
    s3_policy,
)
from repro.datacenter import Cluster, FaultModel, VM
from repro.migration import MigrationEngine
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TraceBuffer, read_trace, validate_trace
from repro.workload import StepTrace

GOLDEN = Path(__file__).resolve().parent / "golden" / "trace_small.jsonl"

#: The pinned golden scenario: small enough to run in well under a
#: second, busy enough to exercise parking, waking, migration, churn
#: admission, and retirement.
GOLDEN_KW = dict(
    n_hosts=8,
    n_vms=24,
    horizon_s=6 * 3600.0,
    seed=3,
    churn_rate_per_h=2.0,
)


def golden_result():
    return run_scenario(s3_policy(), trace=True, **GOLDEN_KW)


class TestGoldenTrace:
    def test_golden_trace_byte_identical(self, update_golden):
        text = golden_result().trace.to_jsonl()
        if update_golden:
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_bytes(text.encode("utf-8"))
            pytest.skip("golden trace regenerated; inspect and commit the diff")
        assert GOLDEN.exists(), (
            "golden trace missing — generate it with `pytest --update-golden`"
        )
        assert text.encode("utf-8") == GOLDEN.read_bytes(), (
            "trace drifted from tests/golden/trace_small.jsonl; if the "
            "behaviour change is intended, rerun with --update-golden and "
            "commit the regenerated file"
        )

    def test_golden_file_passes_the_invariant_checker(self):
        report = validate_trace(read_trace(GOLDEN))
        assert report.ok, "\n" + report.render_text()
        assert report.events_checked > 100

    def test_rerun_is_byte_identical_without_the_golden_file(self):
        # Determinism holds independently of what is pinned on disk.
        assert golden_result().trace.to_jsonl() == golden_result().trace.to_jsonl()

    def test_cli_writes_the_golden_trace(self, tmp_path, capsys):
        # The command line maps its flags onto GOLDEN_KW: --shared-fraction
        # 0 is the library's FleetSpec default.
        from repro.cli import main

        target = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--policy", "S3-PM", "--hosts", "8", "--vms", "24",
             "--hours", "6", "--seed", "3", "--churn", "2",
             "--shared-fraction", "0", "--out", str(target)]
        )
        assert code == 0
        assert target.read_bytes() == GOLDEN.read_bytes()
        assert "0 violation(s)" in capsys.readouterr().out


class TestPolicySweep:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_policy_produces_a_certified_trace(self, name):
        result = run_scenario(
            POLICIES[name](),
            n_hosts=5,
            n_vms=12,
            horizon_s=4 * 3600.0,
            seed=11,
            churn_rate_per_h=3.0,
            fault_model=FaultModel(wake_failure_rate=0.2, permanent_fraction=0.1),
            trace=True,
        )
        report = validate_trace(result.trace, report=result.report)
        assert report.ok, "\n" + report.render_text()
        assert report.hosts_seen == 5

    def test_trace_disabled_costs_nothing(self):
        result = run_scenario(
            s3_policy(), n_hosts=3, n_vms=6, horizon_s=3600.0, seed=1
        )
        assert result.trace is None

    def test_overflowing_buffer_is_reported_as_truncated(self):
        result = run_scenario(
            s3_policy(), trace=True, trace_maxlen=10, **GOLDEN_KW
        )
        assert result.trace.dropped > 0
        report = validate_trace(result.trace, report=result.report)
        assert report.invariants_violated() == ["truncated"]


def fault_draws(n, seed=2026):
    """Reproducible random churn/fault schedules for the property sweep."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        draws.append(
            dict(
                seed=rng.randrange(1_000_000),
                churn_rate_per_h=rng.choice([0.0, 2.0, 5.0, 9.0]),
                wake_failure_rate=rng.choice([0.0, 0.1, 0.3, 0.6]),
                permanent_fraction=rng.choice([0.0, 0.25, 0.5]),
            )
        )
    return draws


class TestPropertySweep:
    @pytest.mark.parametrize(
        "draw", fault_draws(6), ids=lambda d: "seed{seed}".format(**d)
    )
    def test_random_churn_and_fault_schedules_stay_certified(self, draw):
        faults = None
        if draw["wake_failure_rate"] > 0.0:
            faults = FaultModel(
                wake_failure_rate=draw["wake_failure_rate"],
                permanent_fraction=draw["permanent_fraction"],
            )
        result = run_scenario(
            s3_policy(),
            n_hosts=4,
            n_vms=10,
            horizon_s=4 * 3600.0,
            seed=draw["seed"],
            churn_rate_per_h=draw["churn_rate_per_h"],
            fault_model=faults,
            trace=True,
        )
        report = validate_trace(result.trace, report=result.report)
        assert report.ok, "\n" + report.render_text()


class TestWatchdogPayload:
    def surge_run(self):
        """Low demand long enough to park hosts, then a surge the periodic
        planner is too slow for — the watchdog must fire."""
        env = Environment()
        buf = TraceBuffer(label="watchdog")
        cluster = Cluster.homogeneous(
            env, PROTOTYPE_BLADE, 4, cores=16.0, mem_gb=128.0, trace=buf
        )
        engine = MigrationEngine(env, trace=buf)
        cfg = ManagerConfig(period_s=300, park_delay_rounds=0, watchdog_period_s=30)
        manager = PowerAwareManager(env, cluster, engine, cfg, trace=buf)
        trace = StepTrace([(0.0, 0.05), (2 * 3600.0, 1.0)])
        for i in range(4):
            cluster.add_vm(
                VM("vm-{}".format(i), vcpus=12, mem_gb=16, trace=trace),
                cluster.hosts[i % 4],
            )
        manager.start()
        env.run(until=4 * 3600)
        return buf, manager

    def test_reactive_wake_emits_structured_payload(self):
        buf, manager = self.surge_run()
        wakes = [e for e in buf.events if e.event == "watchdog-wake"]
        assert manager.log.reactive_wakes >= 1
        assert len(wakes) == manager.log.reactive_wakes
        for event in wakes:
            assert event.shortfall_cores > 0.0
            if event.trigger == "aggregate":
                # Cluster-wide shortfall: demand outran committed capacity.
                # (A host-overload wake can fire with aggregate headroom.)
                assert event.demand_cores > event.committed_cores
            # No power cap configured: the sentinel says "uncapped".
            assert event.cap_cores == -1.0

    def test_surge_trace_is_certified(self):
        buf, _ = self.surge_run()
        report = validate_trace(buf, require_run_end=False)
        assert report.ok, "\n" + report.render_text()
