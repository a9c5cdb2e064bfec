"""Unit tests for the management plane's action record.

``ManagementLog.emit`` is the plane's one way to book an action: it folds
the typed event into the counter :data:`FOLDS` names and forwards it to
the run's trace.  The unit cases check each fold, each traced action
that moves no counter, and the forwarding.  The pinned runs check the
folds end to end: three fault-heavy runs, which between them move every
plane counter, must report exactly the values recorded before the
counters became folds, with the trace on and off.
"""

from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import run_scenario, s3_policy
from repro.core.cache import EXTRA_FIELDS
from repro.core.plane import ManagementLog
from repro.core.plane.log import FOLDS
from repro.datacenter import (
    FaultModel,
    MigrationFaultModel,
    RepairModel,
    burst_window,
)
from repro.fuzz.corpus import load_corpus_entry
from repro.telemetry import StalenessModel, TraceBuffer
from repro.trace_events import (
    AdmissionEvent,
    Escalation,
    EvacuationEnd,
    HostBlacklisted,
    HostRepaired,
    ManagerDecision,
    MigrationRetry,
    SafeModeEnter,
    SafeModeExit,
    VmRetired,
    WakeRetry,
    WatchdogWake,
)
from repro.workload import FleetSpec

#: One event per fold, with the counter it must move.
FOLD_CASES = [
    (WatchdogWake(1.0, "aggregate", 4.0, 20.0, 16.0, -1.0), "reactive_wakes"),
    (ManagerDecision(1.0, "wake", "h0", "reactive"), "wakes_requested"),
    (ManagerDecision(1.0, "wake-failed", "h0"), "wake_failures"),
    (ManagerDecision(1.0, "wake-rejected", "h0", "in-flight"), "wake_rejections"),
    (WakeRetry(1.0, "h0", 2, 30.0), "wake_retries"),
    (HostBlacklisted(1.0, "h0", 3, 3601.0), "blacklists"),
    (Escalation(1.0, 3, 1, 4.0), "escalations"),
    (HostRepaired(1.0, "h0", 3600.0), "hosts_repaired"),
    (ManagerDecision(1.0, "cap-defer", "h0"), "cap_deferrals"),
    (ManagerDecision(1.0, "park-complete", "h0"), "parks_completed"),
    (EvacuationEnd(1.0, "h0", "cancelled"), "evacuations_aborted"),
    (EvacuationEnd(1.0, "h0", "aborted"), "evacuations_aborted"),
    (ManagerDecision(1.0, "balance", "h0"), "balancer_moves"),
    (MigrationRetry(1.0, "vm0", "h0", "h1", 2, 30.0), "migration_retries"),
    (SafeModeEnter(1.0, "migration-failures", 0.8, 0.0), "safe_mode_enters"),
    (SafeModeExit(1.0, 900.0), "safe_mode_exits"),
    (AdmissionEvent(1.0, "admit", "vm0", "h0"), "admissions"),
    (AdmissionEvent(1.0, "admit-placed", "vm0", "h0", 30.0), "admissions"),
    (AdmissionEvent(1.0, "admit-queued", "vm0"), "admissions_queued"),
    (AdmissionEvent(1.0, "admit-rejected", "vm0"), "admissions_rejected"),
    (AdmissionEvent(1.0, "admit-timeout", "vm0", wait_s=601.0), "admissions_timed_out"),
]

#: Traced actions that move no counter.
UNCOUNTED = [
    ManagerDecision(1.0, "wake", "h0", "maintenance-end"),
    ManagerDecision(1.0, "park", "h0", "sleep"),
    ManagerDecision(1.0, "evac-start", "h0"),
    ManagerDecision(1.0, "evac-cancel", "h0"),
    ManagerDecision(1.0, "evac-stale", "h0"),
    ManagerDecision(1.0, "repair-scheduled", "h0"),
    ManagerDecision(1.0, "maintenance-start", "h0"),
    ManagerDecision(1.0, "maintenance-down", "h0"),
    ManagerDecision(1.0, "maintenance-abort", "h0"),
    ManagerDecision(1.0, "maintenance-end", "h0"),
    EvacuationEnd(1.0, "h0", "complete"),
    VmRetired(1.0, "vm0", "h0"),
]


def case_id(event):
    kind = getattr(event, "action", getattr(event, "outcome", ""))
    detail = getattr(event, "detail", "")
    return ":".join(part for part in (event.event, kind, detail) if part)


def counters(log):
    """Every integer counter of ``log`` by name."""
    return {
        f.name: getattr(log, f.name)
        for f in fields(log)
        if f.name not in ("trace", "admission_waits_s")
    }


class TestManagementLog:
    def test_counters_start_at_zero(self):
        log = ManagementLog()
        assert set(counters(log).values()) == {0}
        assert log.trace is None
        assert log.admission_waits_s == []

    def test_mean_admission_wait_empty(self):
        assert ManagementLog().mean_admission_wait_s() == 0.0

    def test_mean_admission_wait(self):
        log = ManagementLog()
        log.admission_waits_s.extend([10.0, 20.0, 30.0])
        assert log.mean_admission_wait_s() == pytest.approx(20.0)

    def test_independent_instances(self):
        a, b = ManagementLog(), ManagementLog()
        a.emit(AdmissionEvent(1.0, "admit-placed", "vm0", "h0", 5.0))
        assert b.admissions == 0
        assert b.admission_waits_s == []


class TestFolds:
    def test_every_fold_has_a_case(self):
        assert len(FOLD_CASES) == len(FOLDS)
        assert {counter for _, counter in FOLD_CASES} == set(FOLDS.values())

    @pytest.mark.parametrize(
        "event,counter", FOLD_CASES, ids=[case_id(e) for e, _ in FOLD_CASES]
    )
    def test_event_moves_exactly_its_counter_by_one(self, event, counter):
        buf = TraceBuffer()
        log = ManagementLog(trace=buf)
        expected = dict(counters(log), **{counter: 1})
        log.emit(event)
        assert counters(log) == expected
        assert buf.events == [event]

    @pytest.mark.parametrize("event", UNCOUNTED, ids=case_id)
    def test_traced_action_moves_no_counter(self, event):
        buf = TraceBuffer()
        log = ManagementLog(trace=buf)
        log.emit(event)
        assert set(counters(log).values()) == {0}
        assert log.admission_waits_s == []
        assert buf.events == [event]

    def test_events_reach_an_attached_trace_in_order(self):
        buf = TraceBuffer()
        log = ManagementLog(trace=buf)
        events = [event for event, _ in FOLD_CASES] + UNCOUNTED
        for event in events:
            log.emit(event)
        assert len(buf.events) == len(events)
        assert all(a is b for a, b in zip(buf.events, events))

    def test_untraced_log_folds_the_same(self):
        traced, untraced = ManagementLog(trace=TraceBuffer()), ManagementLog()
        for event, _ in FOLD_CASES:
            traced.emit(event)
            untraced.emit(event)
        assert counters(untraced) == counters(traced)
        assert untraced.admission_waits_s == traced.admission_waits_s

    def test_placed_waits_fold_in_order(self):
        log = ManagementLog()
        for event in (
            AdmissionEvent(1.0, "admit-placed", "vm0", "h0", 30.0),
            AdmissionEvent(2.0, "admit", "vm1", "h0"),
            AdmissionEvent(3.0, "admit-timeout", "vm2", wait_s=601.0),
            AdmissionEvent(4.0, "admit-placed", "vm3", "h1", 10.0),
            AdmissionEvent(5.0, "admit-placed", "vm4", "h1", 20.0),
        ):
            log.emit(event)
        assert log.admission_waits_s == [30.0, 10.0, 20.0]
        assert log.mean_admission_wait_s() == pytest.approx(20.0)
        assert (log.admissions, log.admissions_timed_out) == (4, 1)


# ----------------------------------------------------------------------
# Pinned runs
# ----------------------------------------------------------------------

CORPUS = Path(__file__).parent / "corpus" / "state-machine-overlapping-wake.json"


def chaos_kwargs():
    """S3-PM under every fault at once: 12 hosts x 40 VMs x 24 h."""
    horizon = 24 * 3600.0
    return dict(
        n_hosts=12,
        horizon_s=horizon,
        seed=5,
        fleet_spec=FleetSpec(n_vms=40, horizon_s=horizon),
        churn_rate_per_h=4.0,
        fault_model=FaultModel(
            wake_failure_rate=0.3,
            permanent_fraction=0.3,
            repair=RepairModel(mttr_s=3600.0),
            chaos=burst_window(0.25 * horizon, 0.5 * horizon, 0.5),
            migration=MigrationFaultModel(failure_rate=0.3),
        ),
        telemetry_model=StalenessModel(delay_s=60.0, dropout_rate=0.1),
    )


def pinned_run(name):
    """``(config, run_scenario kwargs)`` of one pinned run."""
    if name == "s3-chaos":
        return s3_policy(), chaos_kwargs()
    if name == "neat-chaos":
        config = s3_policy().with_overrides(
            plane="neat",
            neat_request_delay_s=120.0,
            neat_request_dropout=0.2,
            admission_timeout_s=600.0,
            power_cap_w=2500.0,
        )
        return config, chaos_kwargs()
    spec = load_corpus_entry(CORPUS).spec
    kwargs = spec.scenario_kwargs()
    del kwargs["trace"]
    return spec.policy.manager_config(), kwargs


#: ``report.extra`` of each pinned run, recorded before the plane's
#: counters became folds over its events.
PINNED = {
    "s3-chaos": {
        "balancer_moves": 55.0,
        "blacklists": 0.0,
        "cap_deferrals": 0.0,
        "churn_arrived": 107.0,
        "churn_departed": 81.0,
        "churn_rejected": 0.0,
        "detector_reports": 0.0,
        "detector_reports_dropped": 0.0,
        "escalations": 0.0,
        "evacuations_aborted": 13.0,
        "hosts_out_of_service": 0.0,
        "hosts_repaired": 1.0,
        "mean_admission_wait_s": 17.004341117129822,
        "migration_retries": 12.0,
        "migrations_aborted": 0.0,
        "migrations_completed": 125.0,
        "migrations_failed": 55.0,
        "migrations_started": 180.0,
        "parks_completed": 23.0,
        "pending_admissions_end": 0.0,
        "reactive_wakes": 1.0,
        "retires_unknown": 0.0,
        "safe_mode_enters": 3.0,
        "safe_mode_exits": 3.0,
        "telemetry_dropped": 140.0,
        "violation_bronze": 0.0002929312294768862,
        "violation_gold": 0.0,
        "violation_silver": 0.0,
        "wake_failures": 7.0,
        "wake_rejections": 0.0,
        "wake_retries": 3.0,
        "wakes_requested": 24.0,
    },
    "neat-chaos": {
        "balancer_moves": 39.0,
        "blacklists": 0.0,
        "cap_deferrals": 15.0,
        "churn_arrived": 107.0,
        "churn_departed": 81.0,
        "churn_rejected": 0.0,
        "detector_reports": 1898.0,
        "detector_reports_dropped": 407.0,
        "escalations": 0.0,
        "evacuations_aborted": 7.0,
        "hosts_out_of_service": 0.0,
        "hosts_repaired": 1.0,
        "mean_admission_wait_s": 26.514580973896955,
        "migration_retries": 10.0,
        "migrations_aborted": 0.0,
        "migrations_completed": 75.0,
        "migrations_failed": 27.0,
        "migrations_started": 102.0,
        "parks_completed": 14.0,
        "pending_admissions_end": 0.0,
        "reactive_wakes": 0.0,
        "retires_unknown": 1.0,
        "safe_mode_enters": 38.0,
        "safe_mode_exits": 37.0,
        "telemetry_dropped": 140.0,
        "violation_bronze": 0.0007033421066253006,
        "violation_gold": 0.0,
        "violation_silver": 0.0,
        "wake_failures": 4.0,
        "wake_rejections": 0.0,
        "wake_retries": 0.0,
        "wakes_requested": 12.0,
    },
    "overlapping-wake": {
        "balancer_moves": 7.0,
        "blacklists": 1.0,
        "cap_deferrals": 0.0,
        "churn_arrived": 32.0,
        "churn_departed": 20.0,
        "churn_rejected": 0.0,
        "detector_reports": 0.0,
        "detector_reports_dropped": 0.0,
        "escalations": 8.0,
        "evacuations_aborted": 0.0,
        "hosts_out_of_service": 0.0,
        "hosts_repaired": 0.0,
        "mean_admission_wait_s": 532.7594710846795,
        "migration_retries": 0.0,
        "migrations_aborted": 0.0,
        "migrations_completed": 9.0,
        "migrations_failed": 0.0,
        "migrations_started": 9.0,
        "parks_completed": 2.0,
        "pending_admissions_end": 0.0,
        "reactive_wakes": 26.0,
        "retires_unknown": 0.0,
        "safe_mode_enters": 0.0,
        "safe_mode_exits": 0.0,
        "telemetry_dropped": 0.0,
        "violation_bronze": 0.03754548088901529,
        "violation_gold": 0.06436816692719864,
        "violation_silver": 0.014015562597898237,
        "wake_failures": 3.0,
        "wake_rejections": 1.0,
        "wake_retries": 3.0,
        "wakes_requested": 5.0,
    },
}


class TestPinnedRuns:
    def test_pinned_runs_move_every_plane_counter(self):
        plane = set(FOLDS.values()) | {
            "retires_unknown",
            "detector_reports",
            "detector_reports_dropped",
            "mean_admission_wait_s",
        }
        reported = plane & set(EXTRA_FIELDS)
        assert len(reported) == 19
        for key in sorted(reported):
            assert any(extra[key] > 0 for extra in PINNED.values()), key

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_report_matches_the_pinned_values_traced_or_not(self, name):
        config, kwargs = pinned_run(name)
        untraced = run_scenario(config, **kwargs)
        traced = run_scenario(config, trace=True, **kwargs)
        assert traced.report == untraced.report
        assert untraced.report.extra == PINNED[name]
