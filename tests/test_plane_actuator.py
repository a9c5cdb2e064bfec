"""The :class:`WakeArbiter` power-state actuator, exercised directly.

The arbiter is the management plane's single owner of host power
transitions.  These tests drive its state machine through every path —
clean wake, structural rejection of an overlapping wake, injected
failure with backoff, blacklist, permanent failure with MTTR repair —
without a manager in the loop, plus the synthetic-stream checks for the
new ``wake-exclusivity`` trace invariant the arbiter enforces by
construction.
"""

import pytest

from repro.core.plane import ManagementLog, WakeArbiter
from repro.datacenter import Host, WakeScoreboard
from repro.power import PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TraceBuffer, validate_trace
from repro.trace_events import (
    HostInit,
    ManagerDecision,
    TransitionEnd,
    TransitionStart,
    WakeRetry,
)


class _ScriptedInjector:
    """Stand-in injector with a scripted failure sequence (unit tests)."""

    def __init__(self, failures, permanents=(), repair_delay=None):
        self._failures = list(failures)
        self._permanents = list(permanents)
        self.repair_delay = repair_delay

    def draw_wake_failure(self, t=0.0):
        return self._failures.pop(0) if self._failures else False

    def draw_permanent(self, t=0.0):
        return self._permanents.pop(0) if self._permanents else False

    def repair_delay_s(self):
        return self.repair_delay


def build_arbiter(**scoreboard_kw):
    """A parked host plus a traced arbiter, no manager in the loop."""
    env = Environment()
    host = Host(env, "h0", PROTOTYPE_BLADE, initial_state=PowerState.SLEEP)
    scoreboard = WakeScoreboard(**scoreboard_kw)
    trace = TraceBuffer(label="unit")
    trace.emit(HostInit(0.0, "h0", "sleep", cores=host.cores,
                        mem_gb=host.mem_gb))
    log = ManagementLog(trace=trace)
    arbiter = WakeArbiter(env, log, scoreboard)
    return env, host, log, scoreboard, trace, arbiter


def decisions(trace, action):
    return [ev for ev in trace.events
            if isinstance(ev, ManagerDecision) and ev.action == action]


class TestWakeArbiter:
    def test_clean_wake_resolves_and_clears_in_flight(self):
        env, host, log, sb, trace, arb = build_arbiter()
        assert arb.request_wake(host, detail="reactive") is True
        # Membership starts at dispatch, before the process has run.
        assert arb.wake_in_flight("h0")
        env.run(until=3600.0)
        assert host.is_active
        assert not arb.wake_in_flight("h0")
        assert log.wakes_requested == 1
        assert log.wake_rejections == 0
        assert sb.failures("h0") == 0
        [wake] = decisions(trace, "wake")
        assert wake.detail == "reactive"

    def test_overlapping_wake_is_rejected_and_booked(self):
        env, host, log, sb, trace, arb = build_arbiter()
        assert arb.request_wake(host, detail="reactive") is True
        # Same instant, before the spawned process starts: the host still
        # reads as parked and not in transition — exactly the window the
        # fuzz-found race exploited.  The arbiter rejects structurally.
        assert not host.machine.in_transition
        assert arb.request_wake(host, detail="predictive") is False
        assert log.wake_rejections == 1
        assert log.wakes_requested == 1
        [rej] = decisions(trace, "wake-rejected")
        assert rej.host == "h0"
        assert rej.detail == "in-flight"
        env.run(until=3600.0)
        assert host.is_active
        # Only one transition ran; the trace certifies clean.
        assert validate_trace(
            trace, require_run_end=False
        ).invariants_violated() == []

    def test_rejection_leaves_scoreboard_untouched(self):
        env, host, log, sb, trace, arb = build_arbiter()
        arb.request_wake(host, detail="reactive")
        arb.request_wake(host, detail="reactive")
        # The duplicate never reached begin_attempt: one dispatch booked.
        env.run(until=3600.0)
        assert sb.attempt("h0") == 1  # success wiped the record

    def test_failed_wake_books_failure_and_backoff(self):
        env, host, log, sb, trace, arb = build_arbiter(backoff_base_s=60.0)
        host._injector = _ScriptedInjector(failures=[True])
        arb.request_wake(host, detail="reactive")
        env.run(until=3600.0)
        assert not host.is_active
        assert not arb.wake_in_flight("h0")
        assert log.wake_failures == 1
        assert sb.failures("h0") == 1
        assert sb.backoff_s("h0") == 60.0
        assert decisions(trace, "wake-failed")

    def test_retry_after_failure_emits_increasing_attempt(self):
        env, host, log, sb, trace, arb = build_arbiter(backoff_base_s=60.0)
        host._injector = _ScriptedInjector(failures=[True, False])
        arb.request_wake(host, detail="reactive")
        env.run(until=3600.0)
        arb.request_wake(host, detail="reactive")
        env.run(until=2 * 3600.0)
        assert host.is_active
        assert log.wake_retries == 1
        [retry] = [ev for ev in trace.events if isinstance(ev, WakeRetry)]
        assert retry.attempt == 2
        assert retry.backoff_s == 60.0

    def test_blacklist_after_threshold_is_traced(self):
        env, host, log, sb, trace, arb = build_arbiter(
            backoff_base_s=1.0, blacklist_after_failures=1,
            blacklist_hold_s=500.0,
        )
        host._injector = _ScriptedInjector(failures=[True])
        arb.request_wake(host, detail="reactive")
        env.run(until=3600.0)
        assert log.blacklists == 1
        assert sb.blacklisted("h0", env.now - 3500.0)
        assert any(ev for ev in trace.events
                   if type(ev).__name__ == "HostBlacklisted")

    def test_permanent_failure_schedules_repair(self):
        env, host, log, sb, trace, arb = build_arbiter(backoff_base_s=1.0)
        host._injector = _ScriptedInjector(
            failures=[True], permanents=[True], repair_delay=600.0
        )
        arb.request_wake(host, detail="reactive")
        env.run(until=100.0)
        assert host.out_of_service
        assert decisions(trace, "repair-scheduled")
        env.run(until=3600.0)
        assert not host.out_of_service
        assert log.hosts_repaired == 1
        assert sb.failures("h0") == 0  # repair wipes the record
        assert any(ev for ev in trace.events
                   if type(ev).__name__ == "HostRepaired")

    def test_permanent_failure_without_repair_model_is_terminal(self):
        env, host, log, sb, trace, arb = build_arbiter(backoff_base_s=1.0)
        host._injector = _ScriptedInjector(
            failures=[True], permanents=[True], repair_delay=None
        )
        arb.request_wake(host, detail="reactive")
        env.run(until=24 * 3600.0)
        assert host.out_of_service
        assert log.hosts_repaired == 0

    def test_on_settled_fires_once_per_resolution(self):
        calls = []
        env = Environment()
        host = Host(env, "h0", PROTOTYPE_BLADE,
                    initial_state=PowerState.SLEEP)
        host._injector = _ScriptedInjector(failures=[True, False])
        arb = WakeArbiter(env, ManagementLog(), WakeScoreboard(),
                          on_settled=lambda: calls.append(env.now))
        arb.request_wake(host, detail="reactive")
        env.run(until=3600.0)
        arb.request_wake(host, detail="reactive")
        env.run(until=2 * 3600.0)
        assert len(calls) == 2  # failure and success both settle

    def test_operator_wake_rejected_while_in_flight(self):
        env, host, log, sb, trace, arb = build_arbiter()
        assert arb.request_wake(host, detail="reactive") is True
        assert arb.dispatch_operator_wake(host) is None
        assert log.wake_rejections == 1
        env.run(until=3600.0)
        assert host.is_active

    def test_operator_wake_emits_maintenance_detail_no_retry(self):
        env, host, log, sb, trace, arb = build_arbiter()
        proc = arb.dispatch_operator_wake(host)
        assert proc is not None
        env.run(until=proc)
        assert host.is_active
        [wake] = decisions(trace, "wake")
        assert wake.detail == "maintenance-end"
        assert log.wake_retries == 0
        assert not [ev for ev in trace.events if isinstance(ev, WakeRetry)]


def synthetic_host(buf, name="h0", state="off"):
    buf.emit(HostInit(0.0, name, state, cores=16.0, mem_gb=128.0))


class TestWakeExclusivityInvariant:
    """The new validator family on hand-built event streams."""

    def check(self, buf):
        return set(
            validate_trace(buf, require_run_end=False).invariants_violated()
        )

    def wake_start(self, buf, t, host="h0"):
        buf.emit(ManagerDecision(t, "wake", host=host))
        buf.emit(TransitionStart(t, host, "off", "active",
                                 latency_s=10.0, power_w=100.0))

    def test_sequential_wakes_pass(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.wake_start(buf, 100.0)
        buf.emit(TransitionEnd(110.0, "h0", "off", "active",
                               state="active", failed=False))
        assert "wake-exclusivity" not in self.check(buf)

    def test_overlapping_wakes_flagged(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.wake_start(buf, 100.0)
        self.wake_start(buf, 100.0)  # second off->active, first still open
        violated = self.check(buf)
        assert "wake-exclusivity" in violated
        assert "state-machine" in violated  # still caught by the old family

    def test_overlapping_non_wake_transition_not_in_family(self):
        # A park started while a wake is open is a state-machine violation
        # but not a wake-exclusivity one: the family is about duplicated
        # *wakes*, the exact shape the fuzz campaign found.
        buf = TraceBuffer(label="unit")
        synthetic_host(buf)
        self.wake_start(buf, 100.0)
        buf.emit(TransitionStart(105.0, "h0", "active", "sleep",
                                 latency_s=5.0, power_w=50.0))
        violated = self.check(buf)
        assert "wake-exclusivity" not in violated
        assert "state-machine" in violated

    def test_overlap_on_different_hosts_passes(self):
        buf = TraceBuffer(label="unit")
        synthetic_host(buf, "h0")
        synthetic_host(buf, "h1")
        self.wake_start(buf, 100.0, host="h0")
        self.wake_start(buf, 100.0, host="h1")
        assert "wake-exclusivity" not in self.check(buf)
