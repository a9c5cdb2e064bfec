"""Fault-recovery runtime: the per-host wake scoreboard.

The fault *models* (:mod:`repro.datacenter.faults`) decide when a wake
attempt fails; this module holds the management layer's memory of those
failures so the manager can respond intelligently instead of hammering
the same broken host every watchdog tick:

* **exponential backoff** — after the *k*-th consecutive failure a host
  is ineligible for ``min(base * 2**(k-1), max)`` seconds, so retry
  pressure decays while a transient condition (thermal event, congested
  management network) clears;
* **blacklisting** — after ``blacklist_after_failures`` consecutive
  failures the host enters a hold-down window and the manager prefers a
  *different* parked host entirely;
* **retry preference** — among eligible parked hosts, hosts with fewer
  consecutive failures sort first (ties keep the manager's usual
  fastest-exit/most-efficient ordering), so a failing host naturally
  loses its place in the wake queue.

A successful wake or a completed repair resets the host's record.  The
scoreboard is pure bookkeeping — it never touches hosts or the clock —
which keeps it trivially unit-testable and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

_NEVER = float("-inf")

#: Default ceiling of a host's wake backoff, in seconds.
BACKOFF_MAX_S = 900.0


@dataclass
class HostWakeRecord:
    """Per-host retry state tracked by the scoreboard."""

    consecutive_failures: int = 0
    last_failure_t: float = _NEVER
    backoff_until: float = _NEVER
    blacklisted_until: float = _NEVER
    #: Wake attempts *dispatched* since the last success/repair.  Distinct
    #: from ``consecutive_failures``: an attempt is booked when the wake
    #: is requested, a failure only when it resolves.  Attempt numbering
    #: reads ``max(failures, attempts_started) + 1`` so it stays strictly
    #: monotone even when several requests collapse into (or race with)
    #: one in-flight transition.
    attempts_started: int = 0


class WakeScoreboard:
    """Consecutive-failure accounting driving backoff and blacklisting."""

    def __init__(
        self,
        backoff_base_s: float = 60.0,
        backoff_max_s: float = BACKOFF_MAX_S,
        blacklist_after_failures: int = 3,
        blacklist_hold_s: float = 1800.0,
    ) -> None:
        if backoff_base_s <= 0:
            raise ValueError("backoff_base_s must be positive")
        if backoff_max_s < backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if blacklist_after_failures < 1:
            raise ValueError("blacklist_after_failures must be >= 1")
        if blacklist_hold_s <= 0:
            raise ValueError("blacklist_hold_s must be positive")
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.blacklist_after_failures = blacklist_after_failures
        self.blacklist_hold_s = blacklist_hold_s
        self._records: Dict[str, HostWakeRecord] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def record_for(self, host: str) -> HostWakeRecord:
        """The (possibly fresh) record for ``host``; never mutates state."""
        return self._records.get(host, HostWakeRecord())

    def failures(self, host: str) -> int:
        """Consecutive failed wake attempts since the last success/repair."""
        return self.record_for(host).consecutive_failures

    def attempt(self, host: str) -> int:
        """1-based number of the *next* wake attempt for ``host``.

        Monotone per host: counts dispatched attempts as well as resolved
        failures, so a request that races with an in-flight wake still
        sees a strictly larger number than the attempt it collapsed into.
        """
        record = self.record_for(host)
        return max(record.consecutive_failures, record.attempts_started) + 1

    def backoff_s(self, host: str) -> float:
        """Enforced minimum delay before the next attempt (0 when clean)."""
        failures = self.failures(host)
        if failures == 0:
            return 0.0
        return min(
            self.backoff_base_s * (2.0 ** (failures - 1)), self.backoff_max_s
        )

    def blacklisted(self, host: str, now: float) -> bool:
        """True while ``host`` is inside a blacklist hold-down window."""
        return now < self.record_for(host).blacklisted_until

    def eligible(self, host: str, now: float) -> bool:
        """True when neither backoff nor blacklist forbids waking ``host``."""
        record = self.record_for(host)
        return now >= record.backoff_until and now >= record.blacklisted_until

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def begin_attempt(self, host: str) -> int:
        """Book the dispatch of a wake attempt; returns its 1-based number.

        Called exactly once per *dispatched* wake (the WakeArbiter rejects
        overlapping requests before they get here), so the returned
        numbers are strictly monotone until a success or repair resets
        the record.
        """
        record = self._records.setdefault(host, HostWakeRecord())
        number = max(record.consecutive_failures, record.attempts_started) + 1
        record.attempts_started = number
        return number

    def record_failure(self, host: str, now: float) -> Optional[float]:
        """Book one failed wake attempt finishing at ``now``.

        Returns the hold-down end time if this failure pushed the host
        over the blacklist threshold, else None.
        """
        record = self._records.setdefault(host, HostWakeRecord())
        record.consecutive_failures += 1
        record.last_failure_t = now
        record.backoff_until = now + self.backoff_s(host)
        if record.consecutive_failures >= self.blacklist_after_failures:
            record.blacklisted_until = now + self.blacklist_hold_s
            return record.blacklisted_until
        return None

    def record_success(self, host: str) -> None:
        """A wake landed: forget the host's failure history."""
        self._records.pop(host, None)

    def record_repair(self, host: str) -> None:
        """A repair completed: the host returns with a clean slate."""
        self._records.pop(host, None)
