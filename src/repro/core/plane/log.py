"""The management plane's one action record.

Every plane component — the global arbiter, the wake actuator, the
safe-mode governor — books an action the same way: it builds the typed
event from :mod:`repro.trace_events` and calls
:meth:`ManagementLog.emit`.  The log is a fold over those events:
:data:`FOLDS` names the counter each event moves, and ``emit`` bumps
it, records each placed admission's wait, and forwards the event to the
run's :class:`~repro.telemetry.trace.TraceBuffer` when the run is
traced.  The report counters the overhead experiments read and the
trace the checker certifies are therefore one record, on either plane
architecture (``centralized`` or ``neat``).

Three counters have no event and stay plain increments:
``retires_unknown`` (a departure for a VM the plane no longer knows) and
the neat detectors' ``detector_reports`` / ``detector_reports_dropped``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fold import left_sum
from repro.telemetry.trace import TraceBuffer
from repro.trace_events import (
    AdmissionEvent,
    EvacuationEnd,
    ManagerDecision,
    TraceEvent,
)

#: ``(event tag, action or outcome)`` -> the counter that event moves by
#: one.  A traced action whose key is absent moves no counter.
FOLDS: Dict[Tuple[str, str], str] = {
    ("watchdog-wake", ""): "reactive_wakes",
    ("decision", "wake"): "wakes_requested",
    ("decision", "wake-failed"): "wake_failures",
    ("decision", "wake-rejected"): "wake_rejections",
    ("wake-retry", ""): "wake_retries",
    ("host-blacklisted", ""): "blacklists",
    ("escalation", ""): "escalations",
    ("host-repaired", ""): "hosts_repaired",
    ("decision", "cap-defer"): "cap_deferrals",
    ("decision", "park-complete"): "parks_completed",
    ("evacuation-end", "cancelled"): "evacuations_aborted",
    ("evacuation-end", "aborted"): "evacuations_aborted",
    ("decision", "balance"): "balancer_moves",
    ("migration-retry", ""): "migration_retries",
    ("safe-mode-enter", ""): "safe_mode_enters",
    ("safe-mode-exit", ""): "safe_mode_exits",
    ("admission", "admit"): "admissions",
    ("admission", "admit-placed"): "admissions",
    ("admission", "admit-queued"): "admissions_queued",
    ("admission", "admit-rejected"): "admissions_rejected",
    ("admission", "admit-timeout"): "admissions_timed_out",
}


def _fold_key(event: TraceEvent) -> Tuple[str, str]:
    """The :data:`FOLDS` key of ``event``: its tag, plus its action or
    outcome where it has one."""
    if isinstance(event, ManagerDecision):
        if event.action == "wake" and event.detail == "maintenance-end":
            # An operator's wake is traced like the plane's, but the
            # plane did not request it.
            return event.event, "operator-wake"
        return event.event, event.action
    if isinstance(event, AdmissionEvent):
        return event.event, event.action
    if isinstance(event, EvacuationEnd):
        return event.event, event.outcome
    return event.event, ""


@dataclass
class ManagementLog:
    """Counters folded from the plane's actions; the overhead experiments
    read these."""

    #: The run's decision trace; None when the run is untraced.
    trace: Optional[TraceBuffer] = None
    wakes_requested: int = 0
    wake_failures: int = 0
    wake_retries: int = 0
    blacklists: int = 0
    escalations: int = 0
    hosts_repaired: int = 0
    retires_unknown: int = 0
    migration_retries: int = 0
    safe_mode_enters: int = 0
    safe_mode_exits: int = 0
    reactive_wakes: int = 0
    cap_deferrals: int = 0
    #: Wake requests structurally rejected by the :class:`WakeArbiter`
    #: because an ``off->active`` transition for the same host was still
    #: in flight (the overlapping-wake race, fixed by construction).
    wake_rejections: int = 0
    parks_completed: int = 0
    evacuations_aborted: int = 0
    admissions: int = 0
    admissions_queued: int = 0
    admissions_rejected: int = 0
    admissions_timed_out: int = 0
    balancer_moves: int = 0
    #: Neat mode only: local detector reports emitted / lost in the
    #: delayed, lossy request channel on their way to the global arbiter.
    detector_reports: int = 0
    detector_reports_dropped: int = 0
    #: Seconds each queued admission waited for capacity, in order.
    admission_waits_s: List[float] = field(default_factory=list)

    def emit(self, event: TraceEvent) -> None:
        """Book one action: fold it into its counter, then trace it."""
        counter = FOLDS.get(_fold_key(event))
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
        if isinstance(event, AdmissionEvent) and event.action == "admit-placed":
            self.admission_waits_s.append(event.wait_s)
        if self.trace is not None:
            self.trace.emit(event)

    def mean_admission_wait_s(self) -> float:
        waits = self.admission_waits_s
        return left_sum(waits) / len(waits) if waits else 0.0
