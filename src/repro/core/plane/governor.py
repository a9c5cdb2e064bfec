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

        Exit is hysteretic: safe mode holds at least ``safe_mode_hold_s``
        and releases only once the failure rate has fallen to half the
        entry threshold (and telemetry is fresh again), so a plane that
        oscillates around the threshold does not flap.
        """
        cfg = self.config
        threshold = cfg.safe_mode_failure_threshold
        if threshold is None:
            return
        rate, failures = self.observer.observed_failure_rate(
            now, cfg.safe_mode_window_s
        )
        age_limit = cfg.safe_mode_telemetry_age_s
        rate_trip = failures >= cfg.safe_mode_min_failures and rate >= threshold
        age_trip = age_limit is not None and telemetry_age_s > age_limit
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
        if now - self._entered_t < cfg.safe_mode_hold_s:
            return
        calm = failures < cfg.safe_mode_min_failures or rate < 0.5 * threshold
        fresh = age_limit is None or telemetry_age_s <= age_limit
        if calm and fresh:
            self._active = False
            self.log.emit(SafeModeExit(now, dwell_s=now - self._entered_t))
