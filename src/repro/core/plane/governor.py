"""The degradation governor: hysteretic safe-mode entry and exit.

Extracted from the monolithic manager so the freeze decision has one
owner.  While :attr:`SafeModeGovernor.active` is True, consolidation is
frozen — no new evacuations and no parks; in-flight evacuations drain
their migrations but leave the host active.  Growing stays allowed
throughout: waking hosts needs no migrations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.trace_events import SafeModeEnter, SafeModeExit

if TYPE_CHECKING:
    from repro.core.config import ManagerConfig
    from repro.core.plane.log import ManagementLog
    from repro.core.plane.observer import ClusterObserver

#: Window over which the observed migration failure fraction is taken, s.
FAILURE_WINDOW_S = 1800.0
#: Failures the window must hold before the rate can trip safe mode.
MIN_FAILURES = 3
#: Telemetry older than this trips safe mode, s.  Only a staleness model
#: makes it matter: ground-truth reads have age zero.
TELEMETRY_AGE_LIMIT_S = 600.0
#: Shortest stay in safe mode, s.
HOLD_S = 900.0


class SafeModeGovernor:
    """Enter/exit safe mode based on failure rate and telemetry age."""

    def __init__(
        self,
        config: "ManagerConfig",
        log: "ManagementLog",
        observer: "ClusterObserver",
    ) -> None:
        self.config = config
        self.log = log
        self.observer = observer
        self._active = False
        self._entered_t = 0.0

    @property
    def active(self) -> bool:
        """True while the governor has consolidation frozen."""
        return self._active

    def update(self, now: float, telemetry_age_s: float) -> None:
        """One governor round, fed the observer's staleness figure.

        Exit is hysteretic: safe mode holds at least :data:`HOLD_S` and
        releases only once the failure rate has fallen to half the entry
        threshold (and telemetry is fresh again), so a plane that
        oscillates around the threshold does not flap.
        """
        threshold = self.config.safe_mode_failure_threshold
        if threshold is None:
            return
        rate, failures = self.observer.observed_failure_rate(now, FAILURE_WINDOW_S)
        rate_trip = failures >= MIN_FAILURES and rate >= threshold
        age_trip = telemetry_age_s > TELEMETRY_AGE_LIMIT_S
        if not self._active:
            if rate_trip or age_trip:
                self._active = True
                self._entered_t = now
                reason = "migration-failures" if rate_trip else "telemetry-stale"
                self.log.emit(
                    SafeModeEnter(
                        now, reason,
                        failure_rate=rate,
                        telemetry_age_s=telemetry_age_s,
                    )
                )
            return
        if now - self._entered_t < HOLD_S:
            return
        calm = failures < MIN_FAILURES or rate < 0.5 * threshold
        fresh = telemetry_age_s <= TELEMETRY_AGE_LIMIT_S
        if calm and fresh:
            self._active = False
            self.log.emit(SafeModeExit(now, dwell_s=now - self._entered_t))
