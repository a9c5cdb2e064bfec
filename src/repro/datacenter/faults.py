"""Fault injection for power-state transitions.

A practical objection to aggressive parking is reliability: servers do
occasionally fail to resume from sleep.  This model injects wake failures
so the experiments can show the management layer rides through them (the
watchdog retries with backoff, prefers a different parked host after
repeated failures, and — when a :class:`RepairModel` is attached — returns
permanently failed hosts to the pool after an operator repair delay).

Two failure modes:

* *transient* — the resume attempt burns its full latency and energy but
  the host falls back to the parked state; a later attempt may succeed;
* *permanent* — additionally, with probability ``permanent_fraction`` per
  failure, the host is marked out of service and excluded from management
  until the repair model (an operator) intervenes.

On top of the steady-state rates, a :class:`ChaosSchedule` overlays
time-windowed disturbances: correlated failure bursts (every host's wake
attempts fail at an elevated rate inside the window — a firmware bug, a
rack power event) and wake-latency brownouts (resumes inside the window
take a multiple of their nominal latency — a congested management
network).  Both are deterministic given the schedule and the seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.seeding import stream_rng
from repro.trace_events import FaultInjected

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer


@dataclass(frozen=True)
class RepairModel:
    """Operator repair (MTTR) for permanently failed hosts.

    When attached to a :class:`FaultModel`, a host taken out of service by
    a permanent wake failure is returned to the parked pool after an
    exponentially distributed delay with mean ``mttr_s`` (drawn from a
    dedicated per-host RNG stream, so enabling repair does not perturb the
    failure draws).
    """

    mttr_s: float = 4 * 3600.0

    def __post_init__(self) -> None:
        if self.mttr_s <= 0:
            raise ValueError("mttr_s must be positive")


@dataclass(frozen=True)
class FailureBurst:
    """A time window during which wake attempts fail at ``rate``."""

    start_s: float
    end_s: float
    rate: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError("burst window must satisfy 0 <= start < end")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("burst rate must be in [0, 1)")

    def active(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class Brownout:
    """A time window during which wake latency is multiplied by ``scale``."""

    start_s: float
    end_s: float
    scale: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError("brownout window must satisfy 0 <= start < end")
        if self.scale < 1.0:
            raise ValueError("brownout scale must be >= 1.0")

    def active(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class ChaosSchedule:
    """Deterministic time-windowed disturbances layered over the base rates."""

    bursts: Tuple[FailureBurst, ...] = ()
    brownouts: Tuple[Brownout, ...] = ()

    def __post_init__(self) -> None:
        # Accept any sequence for convenience; store tuples so the model
        # stays hashable and cache-canonical.
        object.__setattr__(self, "bursts", tuple(self.bursts))
        object.__setattr__(self, "brownouts", tuple(self.brownouts))

    def failure_rate_at(self, t: float, base: float) -> float:
        """Effective wake-failure probability at ``t`` (burst beats base)."""
        rate = base
        for burst in self.bursts:
            if burst.active(t):
                rate = max(rate, burst.rate)
        return rate

    def latency_scale_at(self, t: float) -> float:
        """Wake-latency multiplier at ``t`` (worst active brownout wins)."""
        scale = 1.0
        for brownout in self.brownouts:
            if brownout.active(t):
                scale = max(scale, brownout.scale)
        return scale


def burst_window(
    start_s: float, end_s: float, rate: float
) -> ChaosSchedule:
    """Convenience: a schedule with one correlated failure burst."""
    return ChaosSchedule(bursts=(FailureBurst(start_s, end_s, rate),))


def brownout_window(
    start_s: float, end_s: float, scale: float
) -> ChaosSchedule:
    """Convenience: a schedule with one wake-latency brownout."""
    return ChaosSchedule(brownouts=(Brownout(start_s, end_s, scale),))


@dataclass(frozen=True)
class MigrationFaultModel:
    """Per-migration mid-copy failure model.

    Each admitted migration independently fails with probability
    ``failure_rate``; a failing migration runs for a sampled fraction of
    its nominal transfer time (uniform in ``[min_fail_fraction,
    max_fail_fraction)``) before aborting.  The engine rolls the flight
    back cleanly — the VM stays on its source, the destination memory
    reservation and the CPU tax are released — and the manager's retry
    policy decides what happens next.

    Draws come from a dedicated per-migration RNG stream keyed
    ``migration:{seed}:{id}``, so the outcome of one migration never
    depends on how many others ran before it, and enabling the model
    does not perturb the wake-failure streams.
    """

    failure_rate: float = 0.0
    min_fail_fraction: float = 0.1
    max_fail_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        if not 0.0 < self.min_fail_fraction <= self.max_fail_fraction:
            raise ValueError(
                "fail fractions must satisfy 0 < min <= max"
            )
        if self.max_fail_fraction >= 1.0:
            raise ValueError("max_fail_fraction must be < 1 (mid-copy)")


@dataclass(frozen=True)
class FaultModel:
    """Failure probabilities for wake (resume/boot) attempts."""

    wake_failure_rate: float = 0.0
    permanent_fraction: float = 0.0
    #: Operator repair for permanently failed hosts (None = dead forever).
    repair: Optional[RepairModel] = None
    #: Time-windowed correlated bursts / brownouts (None = steady state).
    chaos: Optional[ChaosSchedule] = None
    #: Mid-copy live-migration failures (None = migrations never fail).
    migration: Optional[MigrationFaultModel] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.wake_failure_rate < 1.0:
            raise ValueError("wake_failure_rate must be in [0, 1)")
        if not 0.0 <= self.permanent_fraction <= 1.0:
            raise ValueError("permanent_fraction must be in [0, 1]")

    def failure_rate_at(self, t: float) -> float:
        """Effective wake-failure probability at simulated time ``t``."""
        if self.chaos is None:
            return self.wake_failure_rate
        return self.chaos.failure_rate_at(t, self.wake_failure_rate)

    def wake_latency_scale_at(self, t: float) -> float:
        """Wake-latency multiplier at simulated time ``t``."""
        if self.chaos is None:
            return 1.0
        return self.chaos.latency_scale_at(t)


class FaultInjector:
    """Seeded per-host draw source; deterministic per (seed, host name).

    When a decision-trace buffer is attached, every positive draw emits a
    ``fault-injected`` event, so the trace invariant checker can reconcile
    injected faults against failed wake transitions.

    Repair delays come from a *separate* RNG stream (same seed, distinct
    salt), so attaching a :class:`RepairModel` leaves the failure draw
    sequence — and therefore any comparison against a no-repair run —
    untouched.
    """

    def __init__(
        self,
        model: FaultModel,
        seed: int,
        host_name: str,
        trace: Optional["TraceBuffer"] = None,
    ) -> None:
        self.model = model
        self.host_name = host_name
        self._trace = trace
        # Stable across processes (unlike built-in hash, which is salted).
        # The failure stream predates the labelled-stream discipline; its
        # digest input is "{seed}:{host}" with no subsystem prefix, and
        # relabelling would reseed every certified fault benchmark
        # (A10/A11 golden thresholds), so it stays grandfathered.
        digest = zlib.crc32("{}:{}".format(seed, host_name).encode())
        self._rng = np.random.default_rng(digest)  # reprolint: disable=RL012
        self._repair_rng = stream_rng("repair", seed, host_name)

    def draw_wake_failure(self, t: float = 0.0) -> bool:
        rate = self.model.failure_rate_at(t)
        if rate <= 0:
            return False
        failed = bool(self._rng.random() < rate)
        if failed and self._trace is not None:
            self._trace.emit(FaultInjected(t, self.host_name, permanent=False))
        return failed

    def draw_permanent(self, t: float = 0.0) -> bool:
        if self.model.permanent_fraction <= 0:
            return False
        permanent = bool(self._rng.random() < self.model.permanent_fraction)
        if permanent and self._trace is not None:
            self._trace.emit(FaultInjected(t, self.host_name, permanent=True))
        return permanent

    def repair_delay_s(self) -> Optional[float]:
        """Operator repair delay draw, or None when repair is disabled."""
        if self.model.repair is None:
            return None
        return float(self._repair_rng.exponential(self.model.repair.mttr_s))

    def wake_latency_scale(self, t: float) -> float:
        """Brownout latency multiplier for a wake starting at ``t``."""
        return self.model.wake_latency_scale_at(t)


class MigrationFaultInjector:
    """Seeded per-migration draw source for mid-copy failures.

    Every migration id gets its own RNG stream (``migration:{seed}:{id}``),
    so a migration's fate is a pure function of the seed and its admission
    order — re-planning, retries, and concurrency never shift the draws of
    unrelated migrations.
    """

    def __init__(self, model: MigrationFaultModel, seed: int) -> None:
        self.model = model
        self._seed = seed

    def draw_failure(self, migration_id: str) -> Optional[float]:
        """Fail fraction in (0, 1) if this migration fails, else None.

        The returned fraction is the share of the nominal transfer time
        the flight runs before aborting.
        """
        if self.model.failure_rate <= 0:
            return None
        rng = stream_rng("migration", self._seed, migration_id)
        if rng.random() >= self.model.failure_rate:
            return None
        return float(
            rng.uniform(self.model.min_fail_fraction, self.model.max_fail_fraction)
        )
