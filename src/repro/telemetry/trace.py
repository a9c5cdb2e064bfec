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

The event types live in :mod:`repro.trace_events`, a standard-library
leaf every layer can import.  Each producer builds its event from that
module and calls :meth:`TraceBuffer.emit` behind an ``if trace is not
None`` guard, so tracing costs one ``None`` test when it is off.  The
management plane books every action through
:meth:`~repro.core.plane.log.ManagementLog.emit`, which folds the event
into the report counters and forwards it to the run's buffer, so the
counters and the trace are one record.  This module owns the rest: the
buffer, the JSONL export and hash, the schema version, and the reader,
which checks every field of a record against its annotated type.

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
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type, Union, get_type_hints

from repro.trace_events import EVENTS_BY_TAG, TraceEvent

#: Bump on any backward-incompatible change to the event schema.
TRACE_SCHEMA_VERSION = 1

#: Default event capacity of one buffer; overflow increments ``dropped``.
DEFAULT_TRACE_MAXLEN = 1_000_000


class TraceError(ValueError):
    """A trace file or stream could not be parsed."""


#: Field annotation -> (what a value must be, the exact JSON types that
#: qualify).  Exact, because ``bool`` is an ``int`` subclass: ``true`` is
#: neither a count nor a time, and a float field may arrive as ``3``.
_ACCEPTS: Dict[Any, Tuple[str, Tuple[type, ...]]] = {
    str: ("a str", (str,)),
    bool: ("a bool", (bool,)),
    int: ("an int", (int,)),
    float: ("a float", (int, float)),
}


def _field_types(cls: Type[TraceEvent]) -> Tuple[Tuple[str, Any], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


#: Event tag -> ``(field name, annotation)`` pairs, in field order.
_FIELD_TYPES = {tag: _field_types(cls) for tag, cls in EVENTS_BY_TAG.items()}


def event_from_record(record: Dict[str, Any]) -> TraceEvent:
    """Revive one JSONL record into its typed event.

    Every field must be present and hold a value of its annotated type;
    anything else raises :class:`TraceError`, which the validator reports
    as a ``schema`` violation at the record's ``seq``.
    """
    tag = record.get("event")
    cls = EVENTS_BY_TAG.get(tag)  # type: ignore[arg-type]
    if cls is None:
        raise TraceError("unknown event type {!r}".format(tag))
    kwargs = {}
    for name, hint in _FIELD_TYPES[cls.event]:
        if name not in record:
            raise TraceError(
                "event {!r} record is missing field {!r}".format(tag, name)
            )
        value = record[name]
        kind, accepted = _ACCEPTS[hint]
        if type(value) not in accepted:
            raise TraceError(
                "event {!r} field {!r} is not {}: {!r}".format(tag, name, kind, value)
            )
        kwargs[name] = value
    return cls(**kwargs)


# ----------------------------------------------------------------------
# The buffer
# ----------------------------------------------------------------------


class TraceBuffer:
    """Bounded in-memory event collector.

    Producers hand it finished events through :meth:`emit`; it never
    builds one.  Everything else (export, hashing) lives on this class
    too.
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
        return jsonl_hash(self.to_jsonl())


def jsonl_hash(text: str) -> str:
    """:meth:`TraceBuffer.trace_hash` of a trace already encoded as ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` builds
#: this encoder anew per call; one instance serves every record.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(payload: Dict[str, Any]) -> str:
    return _ENCODER.encode(payload)


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
