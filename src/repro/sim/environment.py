"""The simulation environment: clock, event heap, run loop."""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import (
    AllOf,
    Event,
    PRIORITY_NORMAL,
    SharedTimeout,
    Timeout,
)
from repro.sim.process import Process


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Owns simulated time and executes events in timestamp order.

    Ties are broken by scheduling priority, then by insertion order, which
    makes runs fully deterministic for a fixed program and seed.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Number of events popped and executed by :meth:`step` so far
        #: (the benchmark layer's "events" — scheduled events that never
        #: fire before the horizon are not counted).
        self.events_processed = 0
        #: Pending coalesced timeouts keyed by absolute fire time (see
        #: :meth:`shared_timeout`); entries are purged as they fire.
        self._shared_timeouts: dict = {}
        #: Every process whose generator has not finished.  The checkpoint
        #: layer walks this to prove quiescence: a live process the event
        #: heap cannot account for vetoes the snapshot instead of being
        #: silently dropped.
        self._live: set = set()

    @property
    def now(self) -> float:
        """Current simulated time (seconds, by convention in this repo)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that fires at the *absolute* instant ``when``.

        ``timeout(when - now)`` is not the same thing: the addition
        ``now + (when - now)`` is not exact in IEEE-754, so a relative
        re-arm can land one ulp off the original instant and flip event
        order.  Checkpoint resume re-arms every pending wait through this
        method so the restored heap fires at byte-identical timestamps.
        """
        return Timeout(self, when - self._now, value, at=when)

    def shared_timeout(self, delay: float) -> Event:
        """A timeout that coalesces with others firing at the same instant.

        Periodic loops (sampler ticks, watchdogs, backoff timers) that
        wake at the same simulated time share one scheduled event instead
        of pushing one heap entry each — at fleet scale this cuts heap
        churn on every tick.  Waiters resume in request order, which
        matches the pop order of the separate timeouts they replace.
        Shared timeouts always carry ``None``; use :meth:`timeout` when a
        value (or a unique event identity) is needed.
        """
        when = self._now + delay
        event = self._shared_timeouts.get(when)
        if event is not None and not event.processed:
            return event
        event = SharedTimeout(self, delay)
        self._shared_timeouts[when] = event
        event.callbacks.append(self._purge_shared)
        return event

    def shared_timeout_at(self, when: float) -> Event:
        """Absolute-instant variant of :meth:`shared_timeout`.

        Coalesces through the same registry, so waiters re-armed from a
        checkpoint share one heap entry exactly as the original run did
        (and in the same callback order, because restore re-creates them
        in the original request order).
        """
        event = self._shared_timeouts.get(when)
        if event is not None and not event.processed:
            return event
        event = SharedTimeout(self, when - self._now, at=when)
        self._shared_timeouts[when] = event
        event.callbacks.append(self._purge_shared)
        return event

    def _purge_shared(self, event: Event) -> None:
        """Drop a fired shared timeout from the coalescing registry."""
        self._shared_timeouts.pop(self._now, None)

    def process(self, generator: Generator, ckpt: Any = None) -> Process:
        """Start a new process from ``generator``.

        ``ckpt`` optionally attaches a :class:`~repro.sim.process.ResumeSpec`
        declaring how to re-create this process's generator when the run is
        restored from a checkpoint; processes without one veto snapshots
        while alive (transient activity simply delays the checkpoint).
        """
        proc = Process(self, generator)
        if ckpt is not None:
            proc.ckpt = ckpt
            if ckpt.bind is not None:
                setattr(ckpt.owner, ckpt.bind, proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling & execution
    # ------------------------------------------------------------------

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Place a (triggered) event onto the heap ``delay`` from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay={})".format(delay))
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def schedule_at(
        self,
        event: Event,
        when: float,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Place a (triggered) event onto the heap at the exact instant
        ``when`` — no ``now + delay`` float round-trip (see
        :meth:`timeout_at`)."""
        if when < self._now:
            raise ValueError(
                "cannot schedule into the past (when={}, now={})".format(
                    when, self._now
                )
            )
        self._eid += 1
        heapq.heappush(self._queue, (when, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None
        if when < self._now:
            raise AssertionError("event heap yielded a past timestamp")
        self._now = when
        self.events_processed += 1

        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # A failure nobody consumed: surface it to the driver.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Execute events until ``until``.

        ``until`` may be:

        * ``None`` — run until the heap drains;
        * a number — run until that simulated time (clock lands exactly
          there even if no event is scheduled at it);
        * an :class:`Event` — run until it fires, returning its value.
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            stop_event.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(
                    "until={} is in the past (now={})".format(at, self._now)
                )
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            # Exact-instant scheduling: a resumed run re-creates this stop
            # event from a nonzero ``now``, where ``now + (at - now)`` can
            # land one ulp past ``at`` and let a horizon-instant event slip
            # in before the stop — breaking byte-identical resume.
            self.schedule_at(stop_event, at, priority=-1)
            stop_event.callbacks.append(self._stop_callback)

        try:
            while self._queue:
                self.step()
        except StopSimulation:
            if isinstance(until, Event):
                if not until.ok:
                    raise until.value
                return until.value
            return None
        except EmptySchedule:
            pass

        if isinstance(until, Event):
            raise RuntimeError(
                "simulation ran out of events before {!r} fired".format(until)
            )
        if stop_event is not None and not stop_event.processed:
            # Numeric `until` beyond the last event: advance the clock.
            self._now = max(self._now, float(until))
        return None

    def _stop_callback(self, event: Event) -> None:
        raise StopSimulation()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the clock and counters, never the event heap.

        Pending events wrap live generators (unpicklable in CPython); the
        checkpoint layer captures them separately as resume records and
        re-arms fresh events at restore (see :mod:`repro.core.checkpoint`).
        The returned dict is a copy — pickling a running environment does
        not disturb it.
        """
        state = self.__dict__.copy()
        state["_queue"] = []
        state["_shared_timeouts"] = {}
        state["_active_process"] = None
        state["_live"] = set()
        return state

    def __repr__(self) -> str:
        return "<Environment now={} queued={}>".format(self._now, len(self._queue))
