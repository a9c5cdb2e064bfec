"""Event primitives for the simulation kernel.

Events follow a three-stage life cycle:

1. *untriggered* — freshly created, not yet scheduled;
2. *triggered* — given a value (or an exception) and placed on the
   environment's event heap;
3. *processed* — popped off the heap; its callbacks have run.

``Event.succeed`` and ``Event.fail`` move an event from stage 1 to stage 2.
The environment's ``step`` moves it from 2 to 3.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

#: Sentinel stored in ``Event._value`` while the event is untriggered.
_PENDING = object()

#: Default scheduling priority.  Lower sorts earlier at equal times.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class EventAlreadyTriggered(RuntimeError):
    """Raised when succeed/fail is called on an already-triggered event."""


class Event:
    """A one-shot occurrence in simulated time.

    Processes wait on events by ``yield``-ing them; arbitrary callbacks may
    also be attached via :attr:`callbacks` before the event is processed.
    """

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set when a failure was handed to a waiting process (or otherwise
        #: consumed), so the environment does not re-raise it at step time.
        self.defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and sits on (or left) the heap."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise RuntimeError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise RuntimeError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise EventAlreadyTriggered("{!r} already triggered".format(self))
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A failed event re-raises ``exception`` inside every process waiting
        on it.  If nothing waits, the environment raises it at step time
        (unless :attr:`defused` is set).
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self.triggered:
            raise EventAlreadyTriggered("{!r} already triggered".format(self))
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another (triggered) event's outcome onto this one."""
        if self.triggered:
            raise EventAlreadyTriggered("{!r} already triggered".format(self))
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return "<{} {} at {:#x}>".format(type(self).__name__, state, id(self))


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    ``at`` (used by :meth:`Environment.timeout_at`) schedules the event at
    that exact absolute instant instead of ``now + delay``, avoiding the
    float round-trip that would shift a checkpoint-restored wait by one
    ulp; ``delay`` is then only informational.
    """

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        delay: float,
        value: Any = None,
        at: Optional[float] = None,
    ) -> None:
        if at is None and delay < 0:
            raise ValueError("negative delay {!r}".format(delay))
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        if at is None:
            env.schedule(self, delay=delay)
        else:
            env.schedule_at(self, at)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return "<Timeout delay={} at {:#x}>".format(self._delay, id(self))


class SharedTimeout(Event):
    """A coalescable timeout: one heap entry shared by every waiter.

    Obtained via :meth:`Environment.shared_timeout`.  All processes whose
    delays land on the same simulated instant share a single scheduled
    event, so N periodic loops ticking together cost one heap push/pop
    instead of N.  Waiters resume in the order they asked for the instant —
    exactly the order N separate timeouts would have popped in, since both
    follow creation order at equal (time, priority).

    Shared timeouts carry no value (every waiter receives ``None``).
    """

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        delay: float,
        at: Optional[float] = None,
    ) -> None:
        if at is None and delay < 0:
            raise ValueError("negative delay {!r}".format(delay))
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = None
        if at is None:
            env.schedule(self, delay=delay)
        else:
            env.schedule_at(self, at)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return "<SharedTimeout delay={} waiters={} at {:#x}>".format(
            self._delay,
            len(self.callbacks) if self.callbacks is not None else 0,
            id(self),
        )


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    def __init__(self, env: "Environment", process: "Process") -> None:  # noqa: F821
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, priority=PRIORITY_URGENT)


class Condition(Event):
    """Waits for a combination of events.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value, in trigger order.
    """

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    def _collect_values(self) -> dict:
        # Only events that actually fired (processed) contribute a value;
        # Timeout events carry their value from construction, so a bare
        # `triggered` check would leak pending timeouts into the result.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            # Propagate the first failure.
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    def __repr__(self) -> str:
        return "<Condition {} of {} events at {:#x}>".format(
            self._evaluate.__name__, len(self._events), id(self)
        )


class AllOf(Condition):
    """Condition that fires once *all* constituent events fire."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(env, Condition.all_events, events)
