"""Unit tests for the management action ledger."""

import pytest

from repro.core.plane import ManagementLog


class TestManagementLog:
    def test_record_appends_events(self):
        log = ManagementLog()
        log.record(10.0, "wake", "host-001")
        log.record(20.0, "park", "host-002")
        assert log.events == [(10.0, "wake", "host-001"), (20.0, "park", "host-002")]

    def test_record_default_detail(self):
        log = ManagementLog()
        log.record(5.0, "evac-start")
        assert log.events[0] == (5.0, "evac-start", "")

    def test_counters_start_at_zero(self):
        log = ManagementLog()
        assert log.wakes_requested == 0
        assert log.wake_failures == 0
        assert log.reactive_wakes == 0
        assert log.cap_deferrals == 0
        assert log.parks_started == 0
        assert log.parks_completed == 0
        assert log.evacuations_started == 0
        assert log.evacuations_aborted == 0
        assert log.admissions == 0
        assert log.admissions_queued == 0
        assert log.admissions_rejected == 0
        assert log.admissions_timed_out == 0
        assert log.balancer_moves == 0

    def test_mean_admission_wait_empty(self):
        assert ManagementLog().mean_admission_wait_s() == 0.0

    def test_mean_admission_wait(self):
        log = ManagementLog()
        log.admission_waits_s.extend([10.0, 20.0, 30.0])
        assert log.mean_admission_wait_s() == pytest.approx(20.0)

    def test_independent_instances(self):
        a, b = ManagementLog(), ManagementLog()
        a.record(1.0, "x")
        a.admission_waits_s.append(5.0)
        assert b.events == []
        assert b.admission_waits_s == []
