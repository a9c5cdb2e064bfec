"""The decision-trace event types: one frozen dataclass per record.

Every layer that writes the trace builds its event from this module and
hands it to :meth:`repro.telemetry.trace.TraceBuffer.emit` behind an
``if trace is not None`` guard:

* :mod:`repro.power` — power-state transitions (begin/end, sampled
  latency, failures);
* :mod:`repro.datacenter` — host inventory and fault injection;
* :mod:`repro.migration` — migration lifecycle (start and exactly one
  finish, abort or failure per start);
* :mod:`repro.placement` — evacuation planning;
* :mod:`repro.core.plane` — manager decisions, watchdog interventions,
  admission and retirement, fault recovery and safe mode, all booked
  through :meth:`~repro.core.plane.log.ManagementLog.emit`;
* :mod:`repro.core.runner` — initial placement and the end-of-run
  reconciliation markers.

The module imports only the standard library, so any layer can import it
without an import cycle.  Each class's ``event`` tag names its JSONL
records; its fields, in order, are the record's payload (see
:meth:`TraceEvent.to_record`).  The schema version and the reader live
in :mod:`repro.telemetry.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Any, ClassVar, Dict, Tuple, Type


@dataclass(frozen=True)
class TraceEvent:
    """Base event: simulated timestamp plus a per-type ``event`` tag."""

    event: ClassVar[str] = ""

    t: float

    def to_record(self, seq: int) -> Dict[str, Any]:
        """Flat JSON-ready dict; ``seq`` is assigned by the buffer."""
        record: Dict[str, Any] = {"seq": seq, "event": self.event}
        for name in _field_names(type(self)):
            record[name] = getattr(self, name)
        return record


@lru_cache(maxsize=None)
def _field_names(cls: Type[TraceEvent]) -> Tuple[str, ...]:
    """``cls``'s field names in order, looked up once per class."""
    return tuple(f.name for f in fields(cls))


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
