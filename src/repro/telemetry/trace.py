"""Structured decision tracing: a typed, schema-versioned event stream.

End-of-run aggregates (:class:`~repro.telemetry.SimReport`) say *what* a
run cost, but not *why* the manager acted — a regression that swaps a
park for a wake can land on similar energy numbers and slip through
aggregate-level tests.  This module records every decision and state
change as a typed event:

* power-state transitions (begin/end, sampled latency, failures) from
  :class:`~repro.power.machine.HostPowerStateMachine`;
* migration lifecycle (start and exactly one finish/abort per start)
  from :class:`~repro.migration.engine.MigrationEngine`;
* manager decisions (park, wake, evacuation lifecycle, balancing,
  cap deferrals, maintenance) from
  :class:`~repro.core.plane.arbiter.PowerAwareManager`;
* watchdog interventions with the triggering shortfall in the payload;
* admission-queue activity and VM retirement;
* fault injection from :class:`~repro.datacenter.faults.FaultInjector`;
* fault-recovery activity — wake retries with their enforced backoff,
  blacklist hold-downs, operator repairs, and watchdog escalation (see
  :mod:`repro.datacenter.recovery`);
* degraded-plane activity — injected mid-copy migration failures with
  their rollback, the manager's migration retries, and safe-mode
  enter/exit from the degradation governor (see
  :class:`~repro.datacenter.faults.MigrationFaultModel` and
  :mod:`repro.telemetry.view`).

The management plane books every action through
:meth:`~repro.core.plane.log.ManagementLog.emit`: it builds the typed
event, the log folds it into the report counters and forwards it to the
run's buffer when the run is traced, so the counters and the trace are
one record.  The packages below this one in the import graph —
:mod:`repro.power`, :mod:`repro.datacenter`, :mod:`repro.migration` and
:mod:`repro.placement` — hold an ``Optional[TraceBuffer]`` instead and
call its typed factory methods behind an ``if trace is not None`` guard,
so they never import this module at runtime (no import cycles) and
tracing costs them one ``None`` test when it is off.  The runner's
end-of-run markers use the same factories.

The buffer is bounded (overflow is *counted*, never silently ignored —
the validator refuses truncated traces) and exports deterministic JSONL:
a header line carrying the schema version, then one sorted-key JSON
object per event.  Identical simulations produce byte-identical JSONL,
which is what the golden-trace and differential (serial vs. parallel,
cold vs. warm cache) test suites diff and hash.

Schema versioning policy: ``TRACE_SCHEMA_VERSION`` bumps whenever an
event type is removed or a field changes meaning; adding a new event
type or a new field with a default is backward compatible and does not
bump.  The validator rejects traces from unknown schema versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Tuple, Type, Union

#: Bump on any backward-incompatible change to the event schema.
TRACE_SCHEMA_VERSION = 1

#: Default event capacity of one buffer; overflow increments ``dropped``.
DEFAULT_TRACE_MAXLEN = 1_000_000


class TraceError(ValueError):
    """A trace file or stream could not be parsed."""


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    """Base event: simulated timestamp plus a per-type ``event`` tag."""

    event: ClassVar[str] = ""

    t: float

    def to_record(self, seq: int) -> Dict[str, Any]:
        """Flat JSON-ready dict; ``seq`` is assigned by the buffer."""
        record: Dict[str, Any] = {"seq": seq, "event": self.event}
        for f in fields(self):
            record[f.name] = getattr(self, f.name)
        return record


@dataclass(frozen=True)
class HostInit(TraceEvent):
    """A host joined the simulation in ``state``."""

    event = "host-init"

    host: str
    state: str
    cores: float
    mem_gb: float


@dataclass(frozen=True)
class TransitionStart(TraceEvent):
    """A power-state transition began; ``latency_s`` is the sampled value."""

    event = "transition-start"

    host: str
    src: str
    dst: str
    latency_s: float
    power_w: float


@dataclass(frozen=True)
class TransitionEnd(TraceEvent):
    """A power-state transition finished; ``state`` is the resulting state."""

    event = "transition-end"

    host: str
    src: str
    dst: str
    state: str
    failed: bool


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The fault model drew a wake failure for ``host``."""

    event = "fault-injected"

    host: str
    permanent: bool


@dataclass(frozen=True)
class MigrationStart(TraceEvent):
    """A live migration was admitted by the engine."""

    event = "migration-start"

    migration_id: str
    vm: str
    src: str
    dst: str


@dataclass(frozen=True)
class MigrationEnd(TraceEvent):
    """The matching finish (or abort) of one migration start."""

    event = "migration-end"

    migration_id: str
    vm: str
    src: str
    dst: str
    aborted: bool
    duration_s: float
    downtime_s: float
    transferred_gb: float


@dataclass(frozen=True)
class MigrationFailed(TraceEvent):
    """An injected mid-copy fault aborted one migration start.

    Like ``migration-end``, this closes the matching ``migration-start``;
    the VM stayed on ``src`` and the destination reservation was rolled
    back (the validator's rollback-conservation family replays that).
    """

    event = "migration-failed"

    migration_id: str
    vm: str
    src: str
    dst: str
    elapsed_s: float
    fail_fraction: float


@dataclass(frozen=True)
class MigrationRetry(TraceEvent):
    """The manager re-attempted a failed evacuation migration.

    ``attempt`` is the 1-based migration attempt for this VM within one
    evacuation (so always >= 2 here); ``backoff_s`` is the enforced delay
    since the failure — the validator checks the chain is monotone.
    """

    event = "migration-retry"

    vm: str
    host: str
    dst: str
    attempt: int
    backoff_s: float


@dataclass(frozen=True)
class SafeModeEnter(TraceEvent):
    """The degradation governor froze consolidation."""

    event = "safe-mode-enter"

    reason: str
    failure_rate: float
    telemetry_age_s: float


@dataclass(frozen=True)
class SafeModeExit(TraceEvent):
    """The degradation governor re-enabled consolidation (hysteresis met)."""

    event = "safe-mode-exit"

    dwell_s: float


@dataclass(frozen=True)
class EvacuationPlanned(TraceEvent):
    """The evacuation planner ran for ``host`` (``ok`` = plan found)."""

    event = "evacuation-planned"

    host: str
    vms: int
    ok: bool


@dataclass(frozen=True)
class EvacuationEnd(TraceEvent):
    """An evacuate-then-park task ended: complete, cancelled, or aborted."""

    event = "evacuation-end"

    host: str
    outcome: str


@dataclass(frozen=True)
class ManagerDecision(TraceEvent):
    """One manager action (park, wake, evac-start, balance, cap-defer …)."""

    event = "decision"

    action: str
    host: str = ""
    detail: str = ""


@dataclass(frozen=True)
class WatchdogWake(TraceEvent):
    """A watchdog-triggered reactive wake, with the shortfall that caused it."""

    event = "watchdog-wake"

    trigger: str
    shortfall_cores: float
    demand_cores: float
    committed_cores: float
    cap_cores: float


@dataclass(frozen=True)
class WakeRetry(TraceEvent):
    """The manager re-attempted a host whose previous wake(s) failed.

    ``attempt`` is the 1-based wake attempt number (so always >= 2 here)
    and ``backoff_s`` is the enforced minimum delay since the last failed
    attempt — the validator checks it never shrinks within a retry chain.
    """

    event = "wake-retry"

    host: str
    attempt: int
    backoff_s: float


@dataclass(frozen=True)
class HostBlacklisted(TraceEvent):
    """Repeated failures put ``host`` in a hold-down until ``until_t``."""

    event = "host-blacklisted"

    host: str
    failures: int
    until_t: float


@dataclass(frozen=True)
class HostRepaired(TraceEvent):
    """An out-of-service host returned to the pool after operator repair."""

    event = "host-repaired"

    host: str
    downtime_s: float


@dataclass(frozen=True)
class Escalation(TraceEvent):
    """Persistent watchdog shortfall escalated to waking extra hosts."""

    event = "escalation"

    ticks: int
    extra_hosts: int
    shortfall_cores: float


@dataclass(frozen=True)
class AdmissionEvent(TraceEvent):
    """Admission-queue activity (admit, queue, place, reject, time out)."""

    event = "admission"

    action: str
    vm: str
    host: str = ""
    wait_s: float = 0.0


@dataclass(frozen=True)
class VmRetired(TraceEvent):
    """A VM departed the cluster (``host`` empty if it was still queued)."""

    event = "vm-retired"

    vm: str
    host: str = ""


@dataclass(frozen=True)
class HostFinal(TraceEvent):
    """End-of-run per-host reconciliation facts."""

    event = "host-final"

    host: str
    state: str
    energy_j: float
    wake_failures: int
    out_of_service: bool


@dataclass(frozen=True)
class RunEnd(TraceEvent):
    """End-of-run totals the validator reconciles against."""

    event = "run-end"

    horizon_s: float
    energy_kwh: float
    hosts: int
    vms: int
    migrations_unfinished: int


EVENT_TYPES: Tuple[Type[TraceEvent], ...] = (
    HostInit,
    TransitionStart,
    TransitionEnd,
    FaultInjected,
    MigrationStart,
    MigrationEnd,
    MigrationFailed,
    MigrationRetry,
    SafeModeEnter,
    SafeModeExit,
    EvacuationPlanned,
    EvacuationEnd,
    ManagerDecision,
    WatchdogWake,
    WakeRetry,
    HostBlacklisted,
    HostRepaired,
    Escalation,
    AdmissionEvent,
    VmRetired,
    HostFinal,
    RunEnd,
)

EVENTS_BY_TAG: Dict[str, Type[TraceEvent]] = {cls.event: cls for cls in EVENT_TYPES}


def event_from_record(record: Dict[str, Any]) -> TraceEvent:
    """Revive one JSONL record into its typed event."""
    tag = record.get("event")
    cls = EVENTS_BY_TAG.get(tag)  # type: ignore[arg-type]
    if cls is None:
        raise TraceError("unknown event type {!r}".format(tag))
    kwargs = {}
    for f in fields(cls):
        if f.name not in record:
            raise TraceError(
                "event {!r} record is missing field {!r}".format(tag, f.name)
            )
        kwargs[f.name] = record[f.name]
    return cls(**kwargs)


# ----------------------------------------------------------------------
# The buffer
# ----------------------------------------------------------------------


class TraceBuffer:
    """Bounded in-memory event collector.

    The management plane hands it finished events through :meth:`emit`.
    The typed factory methods (``transition_start`` …) serve the
    producers below :mod:`repro.telemetry` in the import graph, which
    never import the event classes, and the runner's end-of-run markers.
    Everything else (export, hashing, parsing) lives on this class too.
    """

    def __init__(
        self, maxlen: int = DEFAULT_TRACE_MAXLEN, label: str = ""
    ) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self.label = label
        self.events: List[TraceEvent] = []
        #: Events discarded because the buffer was full.  A non-zero count
        #: marks the trace as truncated; the validator refuses to certify it.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, event: TraceEvent) -> None:
        if len(self.events) >= self.maxlen:
            self.dropped += 1
            return
        self.events.append(event)

    # -- typed factories (for producers below this package) -------------

    def host_init(
        self, t: float, host: str, state: str, cores: float, mem_gb: float
    ) -> None:
        self.emit(HostInit(t=t, host=host, state=state, cores=cores, mem_gb=mem_gb))

    def transition_start(
        self,
        t: float,
        host: str,
        src: str,
        dst: str,
        latency_s: float,
        power_w: float,
    ) -> None:
        self.emit(
            TransitionStart(
                t=t, host=host, src=src, dst=dst, latency_s=latency_s, power_w=power_w
            )
        )

    def transition_end(
        self, t: float, host: str, src: str, dst: str, state: str, failed: bool
    ) -> None:
        self.emit(
            TransitionEnd(t=t, host=host, src=src, dst=dst, state=state, failed=failed)
        )

    def fault_injected(self, t: float, host: str, permanent: bool) -> None:
        self.emit(FaultInjected(t=t, host=host, permanent=permanent))

    def migration_start(
        self, t: float, migration_id: str, vm: str, src: str, dst: str
    ) -> None:
        self.emit(MigrationStart(t=t, migration_id=migration_id, vm=vm, src=src, dst=dst))

    def migration_end(
        self,
        t: float,
        migration_id: str,
        vm: str,
        src: str,
        dst: str,
        aborted: bool,
        duration_s: float,
        downtime_s: float,
        transferred_gb: float,
    ) -> None:
        self.emit(
            MigrationEnd(
                t=t,
                migration_id=migration_id,
                vm=vm,
                src=src,
                dst=dst,
                aborted=aborted,
                duration_s=duration_s,
                downtime_s=downtime_s,
                transferred_gb=transferred_gb,
            )
        )

    def migration_failed(
        self,
        t: float,
        migration_id: str,
        vm: str,
        src: str,
        dst: str,
        elapsed_s: float,
        fail_fraction: float,
    ) -> None:
        self.emit(
            MigrationFailed(
                t=t,
                migration_id=migration_id,
                vm=vm,
                src=src,
                dst=dst,
                elapsed_s=elapsed_s,
                fail_fraction=fail_fraction,
            )
        )

    def evacuation_planned(self, t: float, host: str, vms: int, ok: bool) -> None:
        self.emit(EvacuationPlanned(t=t, host=host, vms=vms, ok=ok))

    def host_final(
        self,
        t: float,
        host: str,
        state: str,
        energy_j: float,
        wake_failures: int,
        out_of_service: bool,
    ) -> None:
        self.emit(
            HostFinal(
                t=t,
                host=host,
                state=state,
                energy_j=energy_j,
                wake_failures=wake_failures,
                out_of_service=out_of_service,
            )
        )

    def run_end(
        self,
        t: float,
        horizon_s: float,
        energy_kwh: float,
        hosts: int,
        vms: int,
        migrations_unfinished: int,
    ) -> None:
        self.emit(
            RunEnd(
                t=t,
                horizon_s=horizon_s,
                energy_kwh=energy_kwh,
                hosts=hosts,
                vms=vms,
                migrations_unfinished=migrations_unfinished,
            )
        )

    # -- export ---------------------------------------------------------

    def header(self) -> Dict[str, Any]:
        return {
            "trace": TRACE_SCHEMA_VERSION,
            "label": self.label,
            "events": len(self.events),
            "dropped": self.dropped,
        }

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        for seq, event in enumerate(self.events):
            yield event.to_record(seq)

    def to_jsonl(self) -> str:
        """Deterministic JSONL: header line, then one line per event."""
        lines = [_dumps(self.header())]
        lines.extend(_dumps(record) for record in self.iter_records())
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        """Write the JSONL stream to ``path`` atomically; returns the path.

        Traces feed differential byte-comparisons; a torn trace would
        produce a baffling hash mismatch, so the write goes through the
        tmp + fsync + rename helper.
        """
        from repro.core.atomicio import atomic_write

        target = Path(path)
        atomic_write(target, self.to_jsonl().encode("utf-8"))
        return target

    def trace_hash(self) -> str:
        """SHA-256 of the JSONL byte stream — the differential-test key."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------


@dataclass
class TraceLog:
    """A parsed trace: the header plus raw records (``events()`` revives)."""

    header: Dict[str, Any]
    records: List[Dict[str, Any]]

    @property
    def schema(self) -> Optional[int]:
        value = self.header.get("trace")
        return value if isinstance(value, int) else None

    @property
    def dropped(self) -> int:
        value = self.header.get("dropped", 0)
        return value if isinstance(value, int) else 0

    @property
    def label(self) -> str:
        return str(self.header.get("label", ""))

    def __len__(self) -> int:
        return len(self.records)

    def events(self) -> List[TraceEvent]:
        return [event_from_record(record) for record in self.records]


def parse_trace(text: str) -> TraceLog:
    """Parse a JSONL trace stream produced by :meth:`TraceBuffer.to_jsonl`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceError("empty trace stream")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError("unparsable trace header: {}".format(exc)) from exc
    if not isinstance(header, dict) or "trace" not in header:
        raise TraceError("first line is not a trace header (missing 'trace' key)")
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError("line {}: unparsable record: {}".format(lineno, exc)) from exc
        if not isinstance(record, dict) or "event" not in record:
            raise TraceError("line {}: record has no 'event' tag".format(lineno))
        records.append(record)
    return TraceLog(header=header, records=records)


def read_trace(path: Union[str, Path]) -> TraceLog:
    """Read and parse one JSONL trace file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceError("cannot read trace {}: {}".format(path, exc)) from exc
    return parse_trace(text)
