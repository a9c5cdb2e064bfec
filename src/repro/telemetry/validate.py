"""Trace invariant checker: replay a decision trace and certify it.

The checker replays a trace (live :class:`~repro.telemetry.trace.TraceBuffer`
or a parsed :class:`~repro.telemetry.trace.TraceLog`) and asserts the
behavioural invariants the paper's claims rest on.  Every invariant has a
stable id so tests and CI output can pinpoint which property broke:

``truncated``
    The bounded buffer overflowed; an incomplete trace certifies nothing.
``schema``
    Unknown schema version, unknown event type, or malformed record.
``sequence``
    Sequence numbers must be contiguous and timestamps non-decreasing.
``state-machine``
    Host power-state continuity: every transition starts from the tracked
    state, begin/end events pair up (no overlap), the resulting state is
    consistent with the failure flag, and the final state matches the
    end-of-run ``host-final`` record.
``wake-from-active``
    A transition to ACTIVE may only start from a parked state.
``wake-exclusivity``
    At most one open ``*->active`` transition per host at any instant:
    a second wake dispatched while one is in flight is exactly the
    overlapping-wake race the WakeArbiter rejects structurally.
``transition-latency``
    A transition's wall-clock span must equal its *sampled* latency —
    the resume latency is sampled exactly once per wake.
``untraced-park`` / ``untraced-wake``
    Every park/wake transition must be announced by a manager decision at
    the same instant; transitions that bypass the traced decision API are
    exactly the regressions this layer exists to catch (see lint RL009).
``park-after-evacuation``
    A park may begin only after the host's evacuation completed (at the
    same instant), and ``park-occupied`` flags any VM still resident.
``evacuation-lifecycle``
    Every evacuation end matches exactly one open evacuation start.
``migration-conservation``
    Every migration start has exactly one finish/abort/failure; unmatched
    starts must equal the ``run-end`` in-flight count.
``migration-rollback``
    A failed (mid-copy fault) migration must leave the world as it was:
    the VM stays resident on its source, and the failure payload is sane
    (fail fraction strictly inside (0, 1), non-negative elapsed time).
``migration-retry``
    Retry chains must be monotone: each ``migration-retry`` for a VM
    follows a failed migration, the attempt number strictly increases
    within one chain, the backoff never shrinks, and no retry lands
    inside the backoff window opened by the previous failure.  A fresh
    migration start without a same-instant retry event opens a new chain.
``safe-mode``
    Safe-mode windows must pair up (no nested enters, no exit without an
    enter, exit dwell matching the replayed window), carry sane payloads,
    and admit no park decisions while open.
``residency``
    VM placement bookkeeping (admissions, retirements, migration
    switch-overs) must stay consistent, and the end-of-run VM count must
    reconcile.
``fault-accounting``
    Every injected wake fault must surface as a failed wake transition,
    and the ``host-final`` out-of-service flag must match the replayed
    permanent-failure/repair history.
``wake-backoff``
    Retry backoff must be monotone: between successive ``wake-retry``
    events for a host (no successful wake in between) the attempt number
    strictly increases and the backoff never shrinks, and no retry may
    land inside the backoff window opened by the previous failure.
``blacklist-hold``
    A blacklisted host must not be woken again before its hold-down
    expires (operator maintenance-end wakes are exempt).
``repair-reentry``
    A host taken out of service by a permanent failure may re-enter
    management only via a traced ``host-repaired`` event whose downtime
    matches the replay.
``escalation-payload``
    Escalations must carry a sane payload (ticks and extra hosts >= 1,
    positive shortfall) and land at the same instant as a reactive wake.
``energy``
    Per-host trace energy must sum to the run total, which must match the
    ``SimReport`` when one is supplied.
``watchdog-payload``
    Reactive wakes must carry the positive triggering shortfall.
``run-end``
    A complete scenario trace ends with per-host finals and one run-end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.telemetry.trace import (
    TRACE_SCHEMA_VERSION,
    TraceBuffer,
    TraceError,
    TraceLog,
    event_from_record,
)
from repro.trace_events import (
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
    TraceEvent,
    TransitionEnd,
    TransitionStart,
    VmRetired,
    WakeRetry,
    WatchdogWake,
)

_ACTIVE = "active"

#: Trace event tag -> validator invariant families that consume it.
#:
#: This is the coverage contract reprolint RL013 audits by AST: every
#: event type a producer defines must appear here mapped to at least one
#: family this module actually flags, so no event can be emitted into a
#: trace that no invariant ever examines.  Adding a trace event without
#: extending the checker (or mapping it to an existing family that reads
#: it) is a lint failure, not a silent coverage hole.
EVENT_COVERAGE = {
    "host-init": ("sequence", "state-machine"),
    "transition-start": (
        "state-machine", "transition-latency", "wake-exclusivity",
    ),
    "transition-end": ("state-machine", "transition-latency"),
    "fault-injected": ("fault-accounting",),
    "migration-start": ("migration-conservation",),
    "migration-end": ("migration-conservation", "residency"),
    "migration-failed": ("migration-rollback",),
    "migration-retry": ("migration-retry",),
    "safe-mode-enter": ("safe-mode",),
    "safe-mode-exit": ("safe-mode",),
    "evacuation-planned": ("evacuation-lifecycle",),
    "evacuation-end": ("evacuation-lifecycle", "park-after-evacuation"),
    "decision": ("untraced-park", "untraced-wake", "safe-mode"),
    "watchdog-wake": ("watchdog-payload", "escalation-payload"),
    "wake-retry": ("wake-backoff",),
    "host-blacklisted": ("blacklist-hold",),
    "host-repaired": ("repair-reentry",),
    "escalation": ("escalation-payload",),
    "admission": ("residency",),
    "vm-retired": ("residency",),
    "host-final": ("state-machine", "energy", "run-end"),
    "run-end": ("run-end", "migration-conservation"),
}

#: Admission actions that bind a VM to a host.
_PLACING_ACTIONS = frozenset({"admit", "admit-placed", "initial-place"})

#: Absolute tolerance for transition wall-clock vs. sampled latency.
_LATENCY_TOL_S = 1e-6

#: Relative tolerance for energy reconciliation.
_ENERGY_REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed invariant at one trace position."""

    invariant: str
    seq: int
    t: float
    message: str

    def render(self) -> str:
        return "seq {:>6} t={:>12.1f}  [{}] {}".format(
            self.seq, self.t, self.invariant, self.message
        )


@dataclass
class TraceValidationReport:
    """Outcome of one validation pass."""

    violations: List[Violation] = field(default_factory=list)
    events_checked: int = 0
    hosts_seen: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_violated(self) -> List[str]:
        return sorted({v.invariant for v in self.violations})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "events_checked": self.events_checked,
            "hosts_seen": self.hosts_seen,
            "violations": [
                {
                    "invariant": v.invariant,
                    "seq": v.seq,
                    "t": v.t,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }

    def render_text(self) -> str:
        lines = [v.render() for v in self.violations]
        lines.append(
            "trace check: {} violation(s) over {} event(s), {} host(s)".format(
                len(self.violations), self.events_checked, self.hosts_seen
            )
        )
        return "\n".join(lines)


class _HostState:
    """Per-host replay state."""

    __slots__ = (
        "state", "open_transition", "faults", "failed_wakes", "finalized",
        "last_failure_t", "last_retry_attempt", "last_retry_backoff",
        "pending_retry_t", "blacklisted_until", "pending_permanent",
        "oos", "oos_t",
    )

    def __init__(self, state: str) -> None:
        self.state = state
        self.open_transition: Optional[Tuple[int, TransitionStart]] = None
        self.faults = 0
        self.failed_wakes = 0
        self.finalized = False
        # -- recovery replay state --
        self.last_failure_t: Optional[float] = None
        self.last_retry_attempt = 0
        self.last_retry_backoff = 0.0
        self.pending_retry_t: Optional[float] = None
        self.blacklisted_until: Optional[float] = None
        self.pending_permanent = False
        self.oos = False
        self.oos_t = 0.0

    def reset_retry_history(self) -> None:
        self.last_failure_t = None
        self.last_retry_attempt = 0
        self.last_retry_backoff = 0.0


class _MigrationChain:
    """Per-VM retry-chain replay state (migration-retry invariant)."""

    __slots__ = ("last_failure_t", "last_attempt", "last_backoff",
                 "last_retry_t")

    def __init__(self) -> None:
        self.last_failure_t: Optional[float] = None
        self.last_attempt = 0
        self.last_backoff = 0.0
        self.last_retry_t: Optional[float] = None


def _sequenced(
    trace: Union[TraceBuffer, TraceLog, List[TraceEvent]],
    out: TraceValidationReport,
) -> Tuple[List[Tuple[int, TraceEvent]], int]:
    """Normalize the input into ``[(seq, event)]`` plus the dropped count."""
    if isinstance(trace, TraceBuffer):
        return list(enumerate(trace.events)), trace.dropped
    if isinstance(trace, list):
        return list(enumerate(trace)), 0
    if trace.schema != TRACE_SCHEMA_VERSION:
        out.violations.append(
            Violation(
                "schema",
                -1,
                0.0,
                "unsupported trace schema {!r} (checker speaks {})".format(
                    trace.schema, TRACE_SCHEMA_VERSION
                ),
            )
        )
        return [], trace.dropped
    events: List[Tuple[int, TraceEvent]] = []
    for record in trace.records:
        seq = record.get("seq", -1)
        try:
            events.append((int(seq), event_from_record(record)))
        except (TraceError, TypeError, ValueError) as exc:
            out.violations.append(
                Violation("schema", int(seq) if isinstance(seq, int) else -1,
                          0.0, str(exc))
            )
    return events, trace.dropped


def validate_trace(
    trace: Union[TraceBuffer, TraceLog, List[TraceEvent]],
    report: Optional[Any] = None,
    require_run_end: bool = True,
) -> TraceValidationReport:
    """Replay ``trace`` and check every invariant.

    Args:
        trace: a live buffer, a parsed JSONL log, or a bare event list.
        report: optional :class:`~repro.telemetry.SimReport` to reconcile
            energy and horizon against.
        require_run_end: demand the end-of-run reconciliation records
            (disable for partial/synthetic traces in unit tests).
    """
    out = TraceValidationReport()
    events, dropped = _sequenced(trace, out)
    out.events_checked = len(events)
    if dropped:
        out.violations.append(
            Violation(
                "truncated",
                -1,
                0.0,
                "{} event(s) were dropped by the bounded buffer; an "
                "incomplete trace cannot be certified".format(dropped),
            )
        )
        return out

    def flag(invariant: str, seq: int, t: float, message: str) -> None:
        out.violations.append(Violation(invariant, seq, t, message))

    hosts: Dict[str, _HostState] = {}
    residency: Dict[str, str] = {}
    open_evacs: Set[str] = set()
    last_evac_end: Dict[str, EvacuationEnd] = {}
    last_decision: Dict[Tuple[str, str], float] = {}
    open_migrations: Dict[str, MigrationStart] = {}
    finished_migrations: Set[str] = set()
    retry_chains: Dict[str, _MigrationChain] = {}
    safe_mode_since: Optional[float] = None
    maintenance_hosts: Set[str] = set()
    host_finals: Dict[str, HostFinal] = {}
    run_end: Optional[RunEnd] = None
    prev_seq: Optional[int] = None
    prev_t: Optional[float] = None
    last_watchdog_t: Optional[float] = None

    for seq, ev in events:
        if prev_seq is not None and seq != prev_seq + 1:
            flag("sequence", seq, ev.t,
                 "sequence jumped from {} to {}".format(prev_seq, seq))
        elif prev_seq is None and seq != 0:
            flag("sequence", seq, ev.t, "trace does not start at seq 0")
        prev_seq = seq
        if prev_t is not None and ev.t < prev_t - 1e-12:
            flag("sequence", seq, ev.t,
                 "time went backwards ({} after {})".format(ev.t, prev_t))
        prev_t = ev.t

        if run_end is not None and not isinstance(ev, (HostFinal, RunEnd)):
            flag("run-end", seq, ev.t,
                 "{} event after run-end".format(ev.event))

        if isinstance(ev, HostInit):
            if ev.host in hosts:
                flag("state-machine", seq, ev.t,
                     "duplicate host-init for {}".format(ev.host))
            hosts[ev.host] = _HostState(ev.state)
        elif isinstance(ev, TransitionStart):
            state = hosts.get(ev.host)
            if state is None:
                flag("state-machine", seq, ev.t,
                     "transition on unknown host {}".format(ev.host))
                hosts[ev.host] = state = _HostState(ev.src)
            if state.open_transition is not None:
                flag("state-machine", seq, ev.t,
                     "{}: transition {}->{} started while {}->{} still "
                     "running".format(ev.host, ev.src, ev.dst,
                                      state.open_transition[1].src,
                                      state.open_transition[1].dst))
                if ev.dst == _ACTIVE and state.open_transition[1].dst == _ACTIVE:
                    flag("wake-exclusivity", seq, ev.t,
                         "{}: second {}->{} wake started while one is "
                         "in flight".format(ev.host, ev.src, ev.dst))
            if ev.src != state.state:
                flag("state-machine", seq, ev.t,
                     "{}: transition claims src {} but tracked state is "
                     "{}".format(ev.host, ev.src, state.state))
            if state.oos:
                flag("repair-reentry", seq, ev.t,
                     "{}: transition while out of service (no host-repaired "
                     "event)".format(ev.host))
            if ev.dst == _ACTIVE:
                if state.state == _ACTIVE:
                    flag("wake-from-active", seq, ev.t,
                         "{}: wake requested while already active".format(ev.host))
                if last_decision.get((ev.host, "wake")) != ev.t:
                    flag("untraced-wake", seq, ev.t,
                         "{}: wake transition without a same-instant wake "
                         "decision".format(ev.host))
                if (
                    state.blacklisted_until is not None
                    and ev.t < state.blacklisted_until - 1e-9
                    and last_decision.get((ev.host, "maintenance-end")) != ev.t
                ):
                    flag("blacklist-hold", seq, ev.t,
                         "{}: woken at t={:.1f} inside blacklist hold-down "
                         "(until t={:.1f})".format(
                             ev.host, ev.t, state.blacklisted_until))
            else:
                if last_decision.get((ev.host, "park")) != ev.t:
                    flag("untraced-park", seq, ev.t,
                         "{}: park transition without a same-instant park "
                         "decision".format(ev.host))
                evac = last_evac_end.get(ev.host)
                if evac is None or evac.outcome != "complete" or evac.t != ev.t:
                    flag("park-after-evacuation", seq, ev.t,
                         "{}: park began without a completed evacuation at "
                         "the same instant".format(ev.host))
                resident = sorted(
                    vm for vm, host in residency.items() if host == ev.host
                )
                if resident:
                    flag("park-occupied", seq, ev.t,
                         "{}: parking with {} resident VM(s): {}".format(
                             ev.host, len(resident), ", ".join(resident[:5])))
            state.open_transition = (seq, ev)
        elif isinstance(ev, TransitionEnd):
            state = hosts.get(ev.host)
            if state is None or state.open_transition is None:
                flag("state-machine", seq, ev.t,
                     "{}: transition-end without a matching start".format(ev.host))
                if state is not None:
                    state.state = ev.state
                continue
            start_seq, start = state.open_transition
            state.open_transition = None
            if (start.src, start.dst) != (ev.src, ev.dst):
                flag("state-machine", seq, ev.t,
                     "{}: transition-end {}->{} does not match start "
                     "{}->{}".format(ev.host, ev.src, ev.dst, start.src, start.dst))
            span = ev.t - start.t
            if abs(span - start.latency_s) > _LATENCY_TOL_S:
                flag("transition-latency", seq, ev.t,
                     "{}: transition took {:.6f}s but sampled latency was "
                     "{:.6f}s (latency must be sampled exactly once)".format(
                         ev.host, span, start.latency_s))
            expected = ev.src if ev.failed else ev.dst
            if ev.state != expected:
                flag("state-machine", seq, ev.t,
                     "{}: transition-end reports state {} but {} transition "
                     "{}->{} implies {}".format(
                         ev.host, ev.state,
                         "failed" if ev.failed else "completed",
                         ev.src, ev.dst, expected))
            if ev.failed and ev.dst == _ACTIVE:
                state.failed_wakes += 1
                if state.pending_permanent:
                    state.oos = True
                    state.oos_t = ev.t
                    state.pending_permanent = False
            elif not ev.failed and ev.dst == _ACTIVE:
                state.reset_retry_history()
            state.state = ev.state
        elif isinstance(ev, FaultInjected):
            state = hosts.get(ev.host)
            if state is None:
                flag("fault-accounting", seq, ev.t,
                     "fault injected on unknown host {}".format(ev.host))
            elif not ev.permanent:
                state.faults += 1
            else:
                state.pending_permanent = True
        elif isinstance(ev, WakeRetry):
            state = hosts.get(ev.host)
            if state is None:
                flag("wake-backoff", seq, ev.t,
                     "wake-retry for unknown host {}".format(ev.host))
            else:
                if ev.attempt < 2:
                    flag("wake-backoff", seq, ev.t,
                         "{}: retry attempt {} implies no prior "
                         "failure".format(ev.host, ev.attempt))
                if state.last_retry_attempt and ev.attempt <= state.last_retry_attempt:
                    flag("wake-backoff", seq, ev.t,
                         "{}: retry attempt did not increase ({} after "
                         "{})".format(ev.host, ev.attempt,
                                      state.last_retry_attempt))
                if ev.backoff_s + 1e-9 < state.last_retry_backoff:
                    flag("wake-backoff", seq, ev.t,
                         "{}: backoff shrank ({:.1f}s after {:.1f}s)".format(
                             ev.host, ev.backoff_s, state.last_retry_backoff))
                if (
                    state.last_failure_t is not None
                    and ev.t < state.last_failure_t + ev.backoff_s - 1e-9
                ):
                    flag("wake-backoff", seq, ev.t,
                         "{}: retried {:.1f}s after failure, inside the "
                         "{:.1f}s backoff window".format(
                             ev.host, ev.t - state.last_failure_t,
                             ev.backoff_s))
                state.last_retry_attempt = ev.attempt
                state.last_retry_backoff = ev.backoff_s
                state.pending_retry_t = ev.t
        elif isinstance(ev, HostBlacklisted):
            state = hosts.get(ev.host)
            if state is None:
                flag("blacklist-hold", seq, ev.t,
                     "blacklist for unknown host {}".format(ev.host))
            else:
                if ev.failures < 1 or ev.until_t <= ev.t:
                    flag("blacklist-hold", seq, ev.t,
                         "{}: malformed blacklist (failures={}, until "
                         "t={:.1f} at t={:.1f})".format(
                             ev.host, ev.failures, ev.until_t, ev.t))
                state.blacklisted_until = ev.until_t
        elif isinstance(ev, HostRepaired):
            state = hosts.get(ev.host)
            if state is None:
                flag("repair-reentry", seq, ev.t,
                     "host-repaired for unknown host {}".format(ev.host))
            elif not state.oos:
                flag("repair-reentry", seq, ev.t,
                     "{}: host-repaired but replay never saw a permanent "
                     "failure".format(ev.host))
            else:
                if abs((ev.t - state.oos_t) - ev.downtime_s) > 1e-6:
                    flag("repair-reentry", seq, ev.t,
                         "{}: repair reports {:.1f}s downtime but replay "
                         "measured {:.1f}s".format(
                             ev.host, ev.downtime_s, ev.t - state.oos_t))
                state.oos = False
                state.blacklisted_until = None
                state.reset_retry_history()
        elif isinstance(ev, Escalation):
            if ev.ticks < 1 or ev.extra_hosts < 1 or ev.shortfall_cores <= 0:
                flag("escalation-payload", seq, ev.t,
                     "malformed escalation (ticks={}, extra_hosts={}, "
                     "shortfall={:.3f})".format(
                         ev.ticks, ev.extra_hosts, ev.shortfall_cores))
            if last_watchdog_t != ev.t:
                flag("escalation-payload", seq, ev.t,
                     "escalation without a same-instant reactive wake")
        elif isinstance(ev, ManagerDecision):
            last_decision[(ev.host, ev.action)] = ev.t
            if ev.action == "wake-failed":
                state = hosts.get(ev.host)
                if state is not None:
                    state.last_failure_t = ev.t
            if ev.action == "wake":
                state = hosts.get(ev.host)
                if state is not None and state.pending_retry_t == ev.t:
                    state.pending_retry_t = None
            if ev.action == "evac-start":
                if ev.host in open_evacs:
                    flag("evacuation-lifecycle", seq, ev.t,
                         "{}: evacuation started twice".format(ev.host))
                open_evacs.add(ev.host)
            if ev.action == "maintenance-start":
                maintenance_hosts.add(ev.host)
            elif ev.action in ("maintenance-end", "maintenance-abort"):
                maintenance_hosts.discard(ev.host)
            if (
                ev.action == "park"
                and safe_mode_since is not None
                and ev.host not in maintenance_hosts
            ):
                flag("safe-mode", seq, ev.t,
                     "{}: park decision inside the safe-mode window opened "
                     "at t={:.1f}".format(ev.host, safe_mode_since))
        elif isinstance(ev, EvacuationEnd):
            if ev.host not in open_evacs:
                flag("evacuation-lifecycle", seq, ev.t,
                     "{}: evacuation-end ({}) without an open "
                     "evacuation".format(ev.host, ev.outcome))
            open_evacs.discard(ev.host)
            last_evac_end[ev.host] = ev
        elif isinstance(ev, EvacuationPlanned):
            pass
        elif isinstance(ev, WatchdogWake):
            last_watchdog_t = ev.t
            if ev.shortfall_cores <= 0:
                flag("watchdog-payload", seq, ev.t,
                     "reactive wake with non-positive shortfall "
                     "({:.3f} cores)".format(ev.shortfall_cores))
        elif isinstance(ev, MigrationStart):
            if ev.migration_id in open_migrations or (
                ev.migration_id in finished_migrations
            ):
                flag("migration-conservation", seq, ev.t,
                     "duplicate migration id {}".format(ev.migration_id))
            open_migrations[ev.migration_id] = ev
            chain = retry_chains.get(ev.vm)
            if chain is not None and chain.last_retry_t != ev.t:
                # A start without a same-instant retry event is a fresh
                # migration (e.g. a later evacuation), not a continuation
                # of the old chain — its attempts count from one again.
                del retry_chains[ev.vm]
        elif isinstance(ev, MigrationEnd):
            start_ev = open_migrations.pop(ev.migration_id, None)
            if start_ev is None:
                flag("migration-conservation", seq, ev.t,
                     "migration-end {} without a start (or ended "
                     "twice)".format(ev.migration_id))
            else:
                finished_migrations.add(ev.migration_id)
                if (start_ev.vm, start_ev.src, start_ev.dst) != (
                    ev.vm, ev.src, ev.dst
                ):
                    flag("migration-conservation", seq, ev.t,
                         "migration {} end ({}:{}->{}) does not match start "
                         "({}:{}->{})".format(
                             ev.migration_id, ev.vm, ev.src, ev.dst,
                             start_ev.vm, start_ev.src, start_ev.dst))
                if not ev.aborted:
                    retry_chains.pop(ev.vm, None)
                    tracked = residency.get(ev.vm)
                    if tracked is not None and tracked != ev.src:
                        flag("residency", seq, ev.t,
                             "{} migrated from {} but was tracked on "
                             "{}".format(ev.vm, ev.src, tracked))
                    if tracked is not None:
                        residency[ev.vm] = ev.dst
        elif isinstance(ev, MigrationFailed):
            start_ev = open_migrations.pop(ev.migration_id, None)
            if start_ev is None:
                flag("migration-conservation", seq, ev.t,
                     "migration-failed {} without a start (or ended "
                     "twice)".format(ev.migration_id))
            else:
                finished_migrations.add(ev.migration_id)
                if (start_ev.vm, start_ev.src, start_ev.dst) != (
                    ev.vm, ev.src, ev.dst
                ):
                    flag("migration-conservation", seq, ev.t,
                         "migration {} failure ({}:{}->{}) does not match "
                         "start ({}:{}->{})".format(
                             ev.migration_id, ev.vm, ev.src, ev.dst,
                             start_ev.vm, start_ev.src, start_ev.dst))
            if not 0.0 < ev.fail_fraction < 1.0:
                flag("migration-rollback", seq, ev.t,
                     "migration {} failed with fail fraction {:.3f} outside "
                     "(0, 1)".format(ev.migration_id, ev.fail_fraction))
            if ev.elapsed_s < 0:
                flag("migration-rollback", seq, ev.t,
                     "migration {} failed with negative elapsed time "
                     "{:.3f}s".format(ev.migration_id, ev.elapsed_s))
            tracked = residency.get(ev.vm)
            if tracked is not None and tracked != ev.src:
                flag("migration-rollback", seq, ev.t,
                     "{} failed migrating from {} but is tracked on {} — "
                     "rollback did not leave the VM on its source".format(
                         ev.vm, ev.src, tracked))
            chain = retry_chains.setdefault(ev.vm, _MigrationChain())
            chain.last_failure_t = ev.t
        elif isinstance(ev, MigrationRetry):
            if ev.attempt < 2:
                flag("migration-retry", seq, ev.t,
                     "{}: retry attempt {} implies no prior failure".format(
                         ev.vm, ev.attempt))
            chain = retry_chains.get(ev.vm)
            if chain is None or chain.last_failure_t is None:
                flag("migration-retry", seq, ev.t,
                     "{}: migration-retry without a prior failed "
                     "migration".format(ev.vm))
                chain = retry_chains.setdefault(ev.vm, _MigrationChain())
            else:
                if chain.last_attempt and ev.attempt <= chain.last_attempt:
                    flag("migration-retry", seq, ev.t,
                         "{}: retry attempt did not increase ({} after "
                         "{})".format(ev.vm, ev.attempt, chain.last_attempt))
                if ev.backoff_s + 1e-9 < chain.last_backoff:
                    flag("migration-retry", seq, ev.t,
                         "{}: backoff shrank ({:.1f}s after {:.1f}s)".format(
                             ev.vm, ev.backoff_s, chain.last_backoff))
                if ev.t < chain.last_failure_t + ev.backoff_s - 1e-9:
                    flag("migration-retry", seq, ev.t,
                         "{}: retried {:.1f}s after failure, inside the "
                         "{:.1f}s backoff window".format(
                             ev.vm, ev.t - chain.last_failure_t,
                             ev.backoff_s))
            chain.last_attempt = ev.attempt
            chain.last_backoff = ev.backoff_s
            chain.last_retry_t = ev.t
        elif isinstance(ev, SafeModeEnter):
            if safe_mode_since is not None:
                flag("safe-mode", seq, ev.t,
                     "safe-mode-enter at t={:.1f} while already in safe "
                     "mode since t={:.1f}".format(ev.t, safe_mode_since))
            if ev.reason not in ("migration-failures", "telemetry-stale"):
                flag("safe-mode", seq, ev.t,
                     "unknown safe-mode reason {!r}".format(ev.reason))
            if not 0.0 <= ev.failure_rate <= 1.0 or ev.telemetry_age_s < 0:
                flag("safe-mode", seq, ev.t,
                     "malformed safe-mode payload (rate={:.3f}, "
                     "age={:.1f}s)".format(ev.failure_rate,
                                           ev.telemetry_age_s))
            safe_mode_since = ev.t
        elif isinstance(ev, SafeModeExit):
            if safe_mode_since is None:
                flag("safe-mode", seq, ev.t,
                     "safe-mode-exit without a matching enter")
            elif abs((ev.t - safe_mode_since) - ev.dwell_s) > 1e-6:
                flag("safe-mode", seq, ev.t,
                     "safe-mode-exit reports {:.1f}s dwell but the window "
                     "opened {:.1f}s ago".format(
                         ev.dwell_s, ev.t - safe_mode_since))
            safe_mode_since = None
        elif isinstance(ev, AdmissionEvent):
            if ev.action in _PLACING_ACTIONS:
                if residency.get(ev.vm) is not None:
                    flag("residency", seq, ev.t,
                         "{} placed on {} but already tracked on {}".format(
                             ev.vm, ev.host, residency[ev.vm]))
                if not ev.host:
                    flag("residency", seq, ev.t,
                         "{}: placement without a host".format(ev.vm))
                residency[ev.vm] = ev.host
        elif isinstance(ev, VmRetired):
            tracked = residency.pop(ev.vm, None)
            if ev.host and tracked is None:
                flag("residency", seq, ev.t,
                     "{} retired from {} but was not tracked as "
                     "placed".format(ev.vm, ev.host))
            elif ev.host and tracked != ev.host:
                flag("residency", seq, ev.t,
                     "{} retired from {} but was tracked on {}".format(
                         ev.vm, ev.host, tracked))
        elif isinstance(ev, HostFinal):
            state = hosts.get(ev.host)
            if state is None:
                flag("run-end", seq, ev.t,
                     "host-final for unknown host {}".format(ev.host))
                continue
            if state.finalized:
                flag("run-end", seq, ev.t,
                     "duplicate host-final for {}".format(ev.host))
            state.finalized = True
            host_finals[ev.host] = ev
            if ev.state != state.state:
                flag("state-machine", seq, ev.t,
                     "{}: host-final state {} but replay tracked {}".format(
                         ev.host, ev.state, state.state))
            if ev.out_of_service != state.oos:
                flag("fault-accounting", seq, ev.t,
                     "{}: host-final out_of_service={} but replay tracked "
                     "{}".format(ev.host, ev.out_of_service, state.oos))
        elif isinstance(ev, RunEnd):
            if run_end is not None:
                flag("run-end", seq, ev.t, "duplicate run-end")
            run_end = ev

    out.hosts_seen = len(hosts)
    final_seq = prev_seq if prev_seq is not None else -1
    final_t = prev_t if prev_t is not None else 0.0

    # -- per-host fault accounting (open wakes at horizon are excusable) --
    for name in sorted(hosts):
        state = hosts[name]
        slack = 0
        if state.open_transition is not None:
            _, open_start = state.open_transition
            if open_start.dst == _ACTIVE:
                slack = 1
        gap = state.faults - state.failed_wakes
        if gap < 0 or gap > slack:
            flag("fault-accounting", final_seq, final_t,
                 "{}: {} injected wake fault(s) but {} failed wake "
                 "transition(s)".format(name, state.faults, state.failed_wakes))
        if state.pending_retry_t is not None:
            flag("wake-backoff", final_seq, final_t,
                 "{}: wake-retry at t={:.1f} without a same-instant wake "
                 "decision".format(name, state.pending_retry_t))

    # -- end-of-run reconciliation ---------------------------------------
    if run_end is None:
        if require_run_end:
            flag("run-end", final_seq, final_t, "trace has no run-end record")
        return out

    if run_end.hosts != len(hosts):
        flag("run-end", final_seq, final_t,
             "run-end reports {} host(s) but trace initialized {}".format(
                 run_end.hosts, len(hosts)))
    unfinalized = sorted(n for n, s in hosts.items() if not s.finalized)
    if unfinalized:
        flag("run-end", final_seq, final_t,
             "missing host-final for: {}".format(", ".join(unfinalized)))

    if len(residency) != run_end.vms:
        flag("residency", final_seq, final_t,
             "run-end reports {} resident VM(s) but replay tracked "
             "{}".format(run_end.vms, len(residency)))

    unmatched = len(open_migrations)
    if unmatched != run_end.migrations_unfinished:
        flag("migration-conservation", final_seq, final_t,
             "{} migration start(s) without finish/abort, but run-end "
             "reports {} in flight".format(
                 unmatched, run_end.migrations_unfinished))

    if host_finals and len(host_finals) == len(hosts):
        total_kwh = math.fsum(f.energy_j for f in host_finals.values()) / 3.6e6
        if not math.isclose(
            total_kwh, run_end.energy_kwh,
            rel_tol=_ENERGY_REL_TOL, abs_tol=1e-9,
        ):
            flag("energy", final_seq, final_t,
                 "per-host trace energy sums to {:.9f} kWh but run-end "
                 "reports {:.9f} kWh".format(total_kwh, run_end.energy_kwh))
    if report is not None:
        if not math.isclose(
            run_end.energy_kwh, report.energy_kwh,
            rel_tol=_ENERGY_REL_TOL, abs_tol=1e-9,
        ):
            flag("energy", final_seq, final_t,
                 "trace energy {:.9f} kWh does not reconcile with "
                 "SimReport energy {:.9f} kWh".format(
                     run_end.energy_kwh, report.energy_kwh))
        if not math.isclose(run_end.horizon_s, report.horizon_s,
                            rel_tol=1e-12, abs_tol=1e-9):
            flag("run-end", final_seq, final_t,
                 "trace horizon {} does not match SimReport horizon "
                 "{}".format(run_end.horizon_s, report.horizon_s))
    return out
