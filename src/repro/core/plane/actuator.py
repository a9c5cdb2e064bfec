"""The single-owner power-state actuator: the :class:`WakeArbiter`.

Every host power transition the management plane requests — reactive and
predictive wakes, operator maintenance wakes, evacuate-then-park — goes
through this one object.  It tracks in-flight ``off->active``
transitions and structurally rejects a second wake for a host whose
previous attempt has not resolved, which fixes the fuzz-found
overlapping-wake race by construction:

The race: a watchdog tick's ``react_to_shortfall()`` dispatches a wake
via ``env.process(...)``; the spawned process only *starts* later in the
same instant, so ``_drain_pending()`` running immediately afterwards
still sees the host parked, ``in_transition`` False and
``waking_hosts()`` empty — and dispatches a second wake for the same
host.  The trace then shows two open ``off->active`` transitions (the
``state-machine``/``wake-exclusivity`` violation) and a retry attempt
that failed to increase (the ``wake-backoff`` violation).  An in-flight
set keyed on *dispatch*, not transition start, closes the window.

Rejections are booked, not silent: ``log.wake_rejections`` counts them
and a ``wake-rejected`` decision lands in the trace, so the corpus
reproducer can assert the fix fires where the bug used to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Set

from repro.sim import ResumeSpec
from repro.trace_events import (
    HostBlacklisted,
    HostRepaired,
    ManagerDecision,
    WakeRetry,
)

if TYPE_CHECKING:
    from repro.core.plane.log import ManagementLog
    from repro.datacenter.host import Host
    from repro.datacenter.recovery import WakeScoreboard
    from repro.power.states import PowerState
    from repro.sim.environment import Environment
    from repro.sim.events import Event
    from repro.sim.process import Process


class WakeArbiter:
    """Owns the per-host power state machine; serializes wakes per host."""

    def __init__(
        self,
        env: "Environment",
        log: "ManagementLog",
        scoreboard: "WakeScoreboard",
        on_settled: Optional[Callable[[], None]] = None,
    ) -> None:
        self.env = env
        self.log = log
        self.scoreboard = scoreboard
        #: Called after each wake resolves (success or failure); the
        #: manager hooks its pending-admission drain here.
        self._on_settled = on_settled
        #: Hosts with a dispatched-but-unresolved wake.  Membership starts
        #: at *dispatch* (before the spawned process runs), which is what
        #: closes the same-instant double-wake window that transition
        #: state alone cannot see.
        self._in_flight: Set[str] = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def wake_in_flight(self, host: str) -> bool:
        """True while a dispatched wake for ``host`` has not resolved."""
        return host in self._in_flight

    # ------------------------------------------------------------------
    # Wake requests
    # ------------------------------------------------------------------

    def request_wake(self, host: "Host", detail: str) -> bool:
        """Consolidation/watchdog wake path; False when rejected.

        ``detail`` ("reactive" or "predictive") lands on the trace
        decision, preserving the exact emission the monolithic manager
        produced.  Retry attempts are numbered by the scoreboard's
        dispatch-monotone counter, so a retry that follows a rejected
        duplicate still sees a strictly larger attempt number.
        """
        if host.name in self._in_flight:
            self._reject(host)
            return False
        attempt = self.scoreboard.begin_attempt(host.name)
        if attempt > 1:
            self.log.emit(
                WakeRetry(
                    self.env.now, host.name,
                    attempt=attempt,
                    backoff_s=self.scoreboard.backoff_s(host.name),
                )
            )
        self.log.emit(ManagerDecision(self.env.now, "wake", host.name, detail))
        self._dispatch(host)
        return True

    def dispatch_operator_wake(self, host: "Host") -> Optional["Process"]:
        """Maintenance-release wake; returns the process, or None if
        a wake for the host is already in flight.

        Books the dispatch on the scoreboard (keeping attempt numbering
        monotone across operator and automatic wakes) but emits no retry
        trace — operator wakes are not retries of a failed automatic one
        — and does not count as a plane wake request.
        """
        if host.name in self._in_flight:
            self._reject(host)
            return None
        self.scoreboard.begin_attempt(host.name)
        self.log.emit(
            ManagerDecision(self.env.now, "wake", host.name, "maintenance-end")
        )
        return self._dispatch(host)

    def _reject(self, host: "Host") -> None:
        self.log.emit(
            ManagerDecision(self.env.now, "wake-rejected", host.name, "in-flight")
        )

    def _dispatch(self, host: "Host") -> "Process":
        self._in_flight.add(host.name)
        return self.env.process(self._run_wake(host))

    def _run_wake(self, host: "Host") -> Generator["Event", Any, None]:
        yield self.env.process(host.wake())
        self._in_flight.discard(host.name)
        now = self.env.now
        if not host.is_active:
            # Injected wake failure: the scoreboard puts the host into
            # exponential backoff (and eventually blacklists it) so the
            # watchdog retries a *different* parked host first.
            self.log.emit(ManagerDecision(now, "wake-failed", host.name))
            blacklisted_until = self.scoreboard.record_failure(host.name, now)
            if blacklisted_until is not None:
                self.log.emit(
                    HostBlacklisted(
                        now, host.name,
                        failures=self.scoreboard.failures(host.name),
                        until_t=blacklisted_until,
                    )
                )
            if host.out_of_service:
                self._schedule_repair(host)
        else:
            self.scoreboard.record_success(host.name)
        if self._on_settled is not None:
            self._on_settled()

    # ------------------------------------------------------------------
    # Repair (MTTR re-entry)
    # ------------------------------------------------------------------

    def _schedule_repair(self, host: "Host") -> None:
        """Queue an MTTR-delayed repair for a permanently failed host."""
        delay = host.repair_delay_s()
        if delay is None:
            return  # no repair model: the host is lost for the run
        self.log.emit(
            ManagerDecision(
                self.env.now, "repair-scheduled", host.name,
                "{:.0f}s".format(delay),
            )
        )
        self.env.process(
            self._repair(host, delay, self.env.now),
            ckpt=ResumeSpec(self, "_repair", (host, delay, self.env.now)),
        )

    def _repair(
        self,
        host: "Host",
        delay_s: float,
        failed_at: float,
        resume_at: Optional[float] = None,
    ) -> Generator["Event", Any, None]:
        # ``failed_at`` is an argument (not read from the clock here) so a
        # checkpoint-restored repair still reports the original downtime.
        if resume_at is not None:
            yield self.env.timeout_at(resume_at)
        else:
            yield self.env.timeout(delay_s)
        host.repair()
        self.scoreboard.record_repair(host.name)
        now = self.env.now
        self.log.emit(HostRepaired(now, host.name, downtime_s=now - failed_at))

    # ------------------------------------------------------------------
    # Parks
    # ------------------------------------------------------------------

    def park(self, host: "Host", state: "PowerState") -> "Process":
        """Run the host's park transition (decision bookkeeping stays
        with the caller — parks carry evacuation context the actuator
        does not own)."""
        return self.env.process(host.park(state))
