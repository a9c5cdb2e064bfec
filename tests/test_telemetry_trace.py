"""Unit tests for the decision-trace layer (repro.trace_events, repro.telemetry.trace/validate).

Scenario-level trace tests (golden file, policy sweeps, differential
hashing) live in ``test_trace_scenarios.py`` and
``test_trace_differential.py``; this file exercises the buffer, the
JSONL codec, and the invariant checker on hand-built event streams.
"""

import json

import pytest

from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    TraceBuffer,
    TraceError,
    TraceLog,
    Violation,
    parse_trace,
    read_trace,
    validate_trace,
)
from repro.telemetry.trace import event_from_record
from repro.trace_events import (
    EVENT_TYPES,
    AdmissionEvent,
    Escalation,
    EvacuationEnd,
    EvacuationPlanned,
    FaultInjected,
    HostBlacklisted,
    HostFinal,
    HostInit,
    HostRepaired,
    ManagerDecision,
    MigrationEnd,
    MigrationFailed,
    MigrationRetry,
    MigrationStart,
    RunEnd,
    SafeModeEnter,
    SafeModeExit,
    TransitionEnd,
    TransitionStart,
    VmRetired,
    WakeRetry,
    WatchdogWake,
)


def host_buffer(state="active", name="h0"):
    """A buffer holding one initialised host — the smallest valid trace."""
    buf = TraceBuffer(label="unit")
    buf.emit(HostInit(0.0, name, state, cores=16.0, mem_gb=128.0))
    return buf


#: One typical instance of every event type, with the field types the
#: simulator writes.
TYPICAL = {
    event.event: event
    for event in (
        HostInit(0.0, "h0", "active", 16.0, 128.0),
        TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0),
        TransitionEnd(12.5, "h0", "sleep", "active", "active", False),
        FaultInjected(10.0, "h0", True),
        MigrationStart(20.0, "m000001", "vm0", "h0", "h1"),
        MigrationEnd(25.0, "m000001", "vm0", "h0", "h1", False, 5.0, 0.2, 4.0),
        MigrationFailed(22.0, "m000002", "vm1", "h0", "h1", 2.0, 0.4),
        MigrationRetry(52.0, "vm1", "h0", "h1", 2, 30.0),
        SafeModeEnter(60.0, "migration-failures", 0.5, 0.0),
        SafeModeExit(900.0, 840.0),
        EvacuationPlanned(40.0, "h0", 3, True),
        EvacuationEnd(45.0, "h0", "complete"),
        ManagerDecision(50.0, "park", host="h0", detail="sleep"),
        WatchdogWake(60.0, "aggregate", 4.0, 40.0, 36.0, -1.0),
        WakeRetry(70.0, "h2", 2, 30.0),
        HostBlacklisted(80.0, "h2", 3, 1880.0),
        HostRepaired(3600.0, "h3", 3500.0),
        Escalation(90.0, 5, 2, 8.0),
        AdmissionEvent(100.0, "admit-placed", "vm9", host="h1", wait_s=40.0),
        VmRetired(200.0, "vm9", host="h1"),
        HostFinal(3600.0, "h0", "sleep", 1.5e6, 0, False),
        RunEnd(3600.0, 3600.0, 0.4, 4, 8, 0),
    )
}


def check(buf):
    return validate_trace(buf, require_run_end=False)


def violated(buf):
    return set(check(buf).invariants_violated())


class TestBuffer:
    def test_rejects_non_positive_maxlen(self):
        with pytest.raises(ValueError):
            TraceBuffer(maxlen=0)

    def test_len_counts_events(self):
        buf = host_buffer()
        assert len(buf) == 1
        buf.emit(ManagerDecision(5.0, "wake", host="h0"))
        assert len(buf) == 2

    def test_bounded_buffer_drops_and_counts(self):
        buf = TraceBuffer(maxlen=2)
        for t in (0.0, 1.0, 2.0, 3.0):
            buf.emit(ManagerDecision(t, "balance"))
        assert len(buf) == 2
        assert buf.dropped == 2
        assert buf.header()["dropped"] == 2

    def test_truncated_trace_is_not_certified(self):
        buf = TraceBuffer(maxlen=1)
        buf.emit(HostInit(0.0, "h0", "active", cores=16.0, mem_gb=128.0))
        buf.emit(ManagerDecision(1.0, "wake", host="h0"))
        report = check(buf)
        assert not report.ok
        assert report.invariants_violated() == ["truncated"]

    def test_header_carries_schema_and_label(self):
        buf = TraceBuffer(label="unit-test")
        header = buf.header()
        assert header["trace"] == TRACE_SCHEMA_VERSION
        assert header["label"] == "unit-test"
        assert header["events"] == 0


class TestCodec:
    def build(self):
        buf = host_buffer(state="sleep")
        buf.emit(ManagerDecision(10.0, "wake", host="h0", detail="reactive"))
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0))
        buf.emit(TransitionEnd(12.5, "h0", "sleep", "active", "active", failed=False))
        buf.emit(MigrationStart(20.0, "m000001", "vm0", "h0", "h1"))
        buf.emit(MigrationEnd(
            25.0, "m000001", "vm0", "h0", "h1",
            aborted=False, duration_s=5.0, downtime_s=0.2, transferred_gb=4.0,
        ))
        return buf

    def test_jsonl_round_trip_revives_identical_events(self):
        buf = self.build()
        log = parse_trace(buf.to_jsonl())
        assert log.schema == TRACE_SCHEMA_VERSION
        assert log.label == "unit"
        assert log.dropped == 0
        assert log.events() == buf.events

    def test_jsonl_is_deterministic_and_hash_is_stable(self):
        a, b = self.build(), self.build()
        assert a.to_jsonl() == b.to_jsonl()
        assert a.trace_hash() == b.trace_hash()
        b.emit(ManagerDecision(30.0, "park", host="h0"))
        assert a.trace_hash() != b.trace_hash()

    def test_write_then_read_trace(self, tmp_path):
        buf = self.build()
        path = buf.write(tmp_path / "t.jsonl")
        log = read_trace(path)
        assert len(log) == len(buf)
        assert log.events() == buf.events

    def test_read_trace_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty"),
            ("not json\n", "unparsable trace header"),
            ('{"label":"x"}\n', "missing 'trace' key"),
            ('{"trace":1}\n{"t":0.0}\n', "no 'event' tag"),
            ('{"trace":1}\nnot json\n', "line 2"),
        ],
    )
    def test_parse_trace_rejects_malformed_streams(self, text, match):
        with pytest.raises(TraceError, match=match):
            parse_trace(text)

    def test_event_from_record_rejects_unknown_tag(self):
        with pytest.raises(TraceError, match="unknown event type"):
            event_from_record({"event": "mystery", "t": 0.0, "seq": 0})

    def test_event_from_record_rejects_missing_field(self):
        with pytest.raises(TraceError, match="missing field"):
            event_from_record({"event": "host-init", "t": 0.0, "host": "h0"})

    @pytest.mark.parametrize(
        "tag,field,value,kind",
        [
            ("host-init", "t", "abc", "a float"),
            ("host-init", "host", ["h0"], "a str"),
            ("host-init", "cores", True, "a float"),
            ("transition-end", "failed", 1, "a bool"),
            ("host-final", "wake_failures", 1.0, "an int"),
            ("host-final", "wake_failures", True, "an int"),
        ],
    )
    def test_event_from_record_rejects_mistyped_field(self, tag, field, value, kind):
        record = dict(TYPICAL[tag].to_record(0), **{field: value})
        with pytest.raises(TraceError) as excinfo:
            event_from_record(record)
        assert str(excinfo.value) == "event {!r} field {!r} is not {}: {!r}".format(
            tag, field, kind, value
        )

    def test_float_field_accepts_an_int(self):
        record = dict(TYPICAL["host-init"].to_record(0), cores=16)
        assert event_from_record(record) == HostInit(0.0, "h0", "active", 16.0, 128.0)


class TestEventTypes:
    def test_typical_instances_cover_every_type(self):
        assert sorted(TYPICAL) == sorted(cls.event for cls in EVENT_TYPES)

    @pytest.mark.parametrize("cls", EVENT_TYPES, ids=lambda cls: cls.event)
    def test_jsonl_round_trip(self, cls):
        event = TYPICAL[cls.event]
        assert type(event) is cls
        buf = TraceBuffer(label="unit")
        buf.emit(event)
        (record,) = parse_trace(buf.to_jsonl()).records
        assert event_from_record(record) == event


class TestValidatorStateMachine:
    def test_clean_wake_cycle_passes(self):
        buf = host_buffer(state="sleep")
        buf.emit(ManagerDecision(10.0, "wake", host="h0"))
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0))
        buf.emit(TransitionEnd(12.5, "h0", "sleep", "active", "active", failed=False))
        assert check(buf).ok

    def test_wake_from_active_is_flagged(self):
        buf = host_buffer(state="active")
        buf.emit(ManagerDecision(10.0, "wake", host="h0"))
        buf.emit(TransitionStart(10.0, "h0", "active", "active", 2.5, 35.0))
        assert "wake-from-active" in violated(buf)

    def test_wake_without_decision_is_untraced(self):
        buf = host_buffer(state="sleep")
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0))
        assert "untraced-wake" in violated(buf)

    def test_stale_wake_decision_does_not_cover_a_later_wake(self):
        # The decision must be issued at the same instant; an earlier one
        # (a different epoch) does not license this transition.
        buf = host_buffer(state="sleep")
        buf.emit(ManagerDecision(5.0, "wake", host="h0"))
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0))
        assert "untraced-wake" in violated(buf)

    def test_latency_must_match_sampled_value(self):
        buf = host_buffer(state="sleep")
        buf.emit(ManagerDecision(10.0, "wake", host="h0"))
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0))
        buf.emit(TransitionEnd(14.0, "h0", "sleep", "active", "active", failed=False))
        assert "transition-latency" in violated(buf)

    def test_src_must_match_tracked_state(self):
        buf = host_buffer(state="active")
        buf.emit(ManagerDecision(10.0, "wake", host="h0"))
        buf.emit(TransitionStart(10.0, "h0", "hibernate", "active", 2.5, 35.0))
        assert "state-machine" in violated(buf)

    def test_transition_end_without_start(self):
        buf = host_buffer()
        buf.emit(TransitionEnd(5.0, "h0", "active", "sleep", "sleep", failed=False))
        assert "state-machine" in violated(buf)

    def test_failed_wake_must_report_source_state(self):
        buf = host_buffer(state="sleep")
        buf.emit(ManagerDecision(10.0, "wake", host="h0"))
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0))
        # A failed wake leaves the host parked; claiming "active" lies.
        buf.emit(TransitionEnd(12.5, "h0", "sleep", "active", "active", failed=True))
        assert "state-machine" in violated(buf)

    def test_overlapping_transitions_are_flagged(self):
        buf = host_buffer(state="sleep")
        buf.emit(ManagerDecision(10.0, "wake", host="h0"))
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 5.0, 35.0))
        buf.emit(ManagerDecision(12.0, "wake", host="h0"))
        buf.emit(TransitionStart(12.0, "h0", "sleep", "active", 5.0, 35.0))
        assert "state-machine" in violated(buf)


class TestValidatorParkContract:
    def park_preamble(self, with_evac=True, with_decision=True, occupied=False):
        buf = host_buffer(state="active")
        if occupied:
            buf.emit(AdmissionEvent(1.0, "admit", "vm7", host="h0"))
        if with_evac:
            buf.emit(ManagerDecision(50.0, "evac-start", host="h0"))
            buf.emit(EvacuationEnd(50.0, "h0", "complete"))
        if with_decision:
            buf.emit(ManagerDecision(50.0, "park", host="h0", detail="sleep"))
        buf.emit(TransitionStart(50.0, "h0", "active", "sleep", 1.0, 10.0))
        buf.emit(TransitionEnd(51.0, "h0", "active", "sleep", "sleep", failed=False))
        return buf

    def test_clean_park_passes(self):
        assert check(self.park_preamble()).ok

    def test_park_without_decision_is_untraced(self):
        buf = self.park_preamble(with_decision=False)
        assert "untraced-park" in violated(buf)

    def test_park_without_completed_evacuation(self):
        buf = self.park_preamble(with_evac=False)
        assert "park-after-evacuation" in violated(buf)

    def test_park_with_resident_vm_is_flagged(self):
        buf = self.park_preamble(occupied=True)
        assert "park-occupied" in violated(buf)

    def test_aborted_evacuation_does_not_license_a_park(self):
        buf = host_buffer(state="active")
        buf.emit(ManagerDecision(50.0, "evac-start", host="h0"))
        buf.emit(EvacuationEnd(50.0, "h0", "aborted"))
        buf.emit(ManagerDecision(50.0, "park", host="h0"))
        buf.emit(TransitionStart(50.0, "h0", "active", "sleep", 1.0, 10.0))
        assert "park-after-evacuation" in violated(buf)

    def test_evacuation_end_without_start(self):
        buf = host_buffer()
        buf.emit(EvacuationEnd(50.0, "h0", "complete"))
        assert "evacuation-lifecycle" in violated(buf)


class TestValidatorMigrationsAndResidency:
    def test_migration_end_without_start(self):
        buf = host_buffer()
        buf.emit(MigrationEnd(
            5.0, "m000001", "vm0", "h0", "h1",
            aborted=False, duration_s=1.0, downtime_s=0.1, transferred_gb=1.0,
        ))
        assert "migration-conservation" in violated(buf)

    def test_duplicate_migration_id(self):
        buf = host_buffer()
        buf.emit(MigrationStart(5.0, "m000001", "vm0", "h0", "h1"))
        buf.emit(MigrationStart(6.0, "m000001", "vm1", "h0", "h1"))
        assert "migration-conservation" in violated(buf)

    def test_completed_migration_moves_residency(self):
        buf = host_buffer()
        buf.emit(HostInit(0.0, "h1", "active", cores=16.0, mem_gb=128.0))
        buf.emit(AdmissionEvent(1.0, "admit", "vm0", host="h0"))
        buf.emit(MigrationStart(5.0, "m000001", "vm0", "h0", "h1"))
        buf.emit(MigrationEnd(
            9.0, "m000001", "vm0", "h0", "h1",
            aborted=False, duration_s=4.0, downtime_s=0.1, transferred_gb=1.0,
        ))
        buf.emit(VmRetired(20.0, "vm0", host="h1"))
        assert check(buf).ok

    def test_double_placement_is_flagged(self):
        buf = host_buffer()
        buf.emit(AdmissionEvent(1.0, "admit", "vm0", host="h0"))
        buf.emit(AdmissionEvent(2.0, "admit", "vm0", host="h0"))
        assert "residency" in violated(buf)

    def test_retire_from_wrong_host_is_flagged(self):
        buf = host_buffer()
        buf.emit(AdmissionEvent(1.0, "admit", "vm0", host="h0"))
        buf.emit(VmRetired(5.0, "vm0", host="h9"))
        assert "residency" in violated(buf)

    def test_watchdog_wake_needs_positive_shortfall(self):
        buf = host_buffer()
        buf.emit(WatchdogWake(
            5.0, "aggregate", shortfall_cores=0.0, demand_cores=10.0,
            committed_cores=16.0, cap_cores=-1.0,
        ))
        assert violated(buf) == {"watchdog-payload"}


class TestValidatorStreamChecks:
    def test_schema_mismatch_is_rejected(self):
        log = TraceLog(header={"trace": TRACE_SCHEMA_VERSION + 1}, records=[])
        report = validate_trace(log, require_run_end=False)
        assert report.invariants_violated() == ["schema"]

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("t", "abc", "event 'host-init' field 't' is not a float: 'abc'"),
            ("host", ["h0"], "event 'host-init' field 'host' is not a str: ['h0']"),
        ],
    )
    def test_mistyped_record_is_a_schema_violation(self, field, value, message):
        # A hand-edited file gets a report, not a crash inside the replay.
        buf = host_buffer()
        buf.emit(ManagerDecision(1.0, "balance"))
        records = list(buf.iter_records())
        records[0][field] = value
        text = "\n".join(json.dumps(line) for line in [buf.header()] + records)
        report = validate_trace(parse_trace(text), require_run_end=False)
        assert Violation("schema", 0, 0.0, message) in report.violations

    def test_unknown_event_record_is_a_schema_violation(self):
        log = TraceLog(
            header={"trace": TRACE_SCHEMA_VERSION},
            records=[{"event": "mystery", "seq": 0, "t": 0.0}],
        )
        report = validate_trace(log, require_run_end=False)
        assert "schema" in report.invariants_violated()

    def test_sequence_gap_is_flagged(self):
        buf = host_buffer()
        buf.emit(ManagerDecision(1.0, "balance"))
        records = list(buf.iter_records())
        records[1]["seq"] = 5
        log = TraceLog(header=buf.header(), records=records)
        report = validate_trace(log, require_run_end=False)
        assert "sequence" in report.invariants_violated()

    def test_time_travel_is_flagged(self):
        buf = host_buffer()
        buf.emit(ManagerDecision(10.0, "balance"))
        buf.emit(ManagerDecision(4.0, "balance"))
        assert "sequence" in violated(buf)

    def test_missing_run_end_flagged_when_required(self):
        buf = host_buffer()
        report = validate_trace(buf, require_run_end=True)
        assert report.invariants_violated() == ["run-end"]

    def test_report_renders_and_serialises(self):
        buf = host_buffer(state="sleep")
        buf.emit(TransitionStart(10.0, "h0", "sleep", "active", 2.5, 35.0))
        report = check(buf)
        assert not report.ok
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["violations"][0]["invariant"] == "untraced-wake"
        text = report.render_text()
        assert "untraced-wake" in text
        assert "1 violation(s)" in text
