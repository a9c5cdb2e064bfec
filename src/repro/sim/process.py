"""Generator-based simulation processes."""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional, Tuple

from repro.sim.events import Event, Initialize, PRIORITY_URGENT, _PENDING


class ResumeSpec:
    """How to re-create a long-lived process after checkpoint restore.

    Generators cannot be pickled, so a checkpoint never captures a
    process's frame.  Instead, every *resumable* process declares — at
    spawn time — the picklable recipe for rebuilding an equivalent
    generator positioned at its wait point: call
    ``getattr(owner, method)(*args, resume_at=<original fire instant>)``.
    The factory's first yield must wait until ``resume_at`` (via
    ``Environment.timeout_at`` / ``shared_timeout_at``) and then continue
    the loop body exactly where the original would have.

    ``bind``, when set, names an attribute on ``owner`` that should point
    at the (re)created process object (e.g. the sampler's ``_process``).

    Live processes *without* a spec veto checkpoints — transient activity
    (migrations, power transitions, evacuations) simply delays the
    snapshot until it drains, rather than being silently dropped.
    """

    __slots__ = ("owner", "method", "args", "bind")

    def __init__(
        self,
        owner: Any,
        method: str,
        args: Tuple[Any, ...] = (),
        bind: Optional[str] = None,
    ) -> None:
        self.owner = owner
        self.method = method
        self.args = tuple(args)
        self.bind = bind

    def make_generator(self, resume_at: float) -> Generator:
        """Build the continuation generator waiting until ``resume_at``."""
        return getattr(self.owner, self.method)(*self.args, resume_at=resume_at)

    def __repr__(self) -> str:
        return "<ResumeSpec {}.{}>".format(type(self.owner).__name__, self.method)


class Process(Event):
    """A running simulation activity.

    A process wraps a generator that yields :class:`~repro.sim.Event`
    instances.  Each yielded event suspends the process until the event
    fires; its value is sent back into the generator (failures are thrown).
    The process itself is an event that triggers when the generator returns,
    so processes can wait for each other::

        def parent(env):
            child_proc = env.process(child(env))
            result = yield child_proc
    """

    def __init__(self, env: "Environment", generator: Generator) -> None:  # noqa: F821
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                "Process requires a generator, got {!r}".format(generator)
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        #: Optional :class:`ResumeSpec` marking this process checkpoint-
        #: resumable (set via ``Environment.process(..., ckpt=...)``).
        self.ckpt: Optional[ResumeSpec] = None
        env._live.add(self)
        Initialize(env, self)

    @property
    def name(self) -> str:
        if self._generator is None:  # checkpoint-restored husk
            return "<restored>"
        return self._generator.__name__

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None if running)."""
        return self._target

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self.env._active_process = self
        self._target = None

        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        # Crash capture, not swallowing: the exception becomes this
        # process-event's failure value and is re-raised in every waiter
        # (or by Environment.step if nobody absorbs it).
        except BaseException as exc:  # reprolint: disable=RL006
            self._finish_fail(exc)
            return
        finally:
            self.env._active_process = None

        self._wait_on(next_event)

    def _wait_on(self, event: Any) -> None:
        if not isinstance(event, Event):
            exc = TypeError(
                "process {!r} yielded a non-event: {!r}".format(self.name, event)
            )
            # Deliver the error to the offending process on the next step.
            error_event = Event(self.env)
            error_event._ok = False
            error_event._value = exc
            error_event.defused = True
            error_event.callbacks.append(self._resume)
            self.env.schedule(error_event, priority=PRIORITY_URGENT)
            return
        if event.env is not self.env:
            raise ValueError("yielded event belongs to a different environment")
        if event.processed:
            # Already done: resume immediately on the next step.
            proxy = Event(self.env)
            proxy._ok = event._ok
            proxy._value = event._value
            if not event._ok:
                proxy.defused = True
            proxy.callbacks.append(self._resume)
            self.env.schedule(proxy, priority=PRIORITY_URGENT)
        else:
            event.callbacks.append(self._resume)
        self._target = event

    def _finish_ok(self, value: Any) -> None:
        self._ok = True
        self._value = value
        self.env._live.discard(self)
        self.env.schedule(self)

    def _finish_fail(self, exc: BaseException) -> None:
        self._ok = False
        self._value = exc
        self.env._live.discard(self)
        self.env.schedule(self)

    def __getstate__(self) -> dict:
        """Pickle a process *husk*: everything but the generator frame.

        Finished processes referenced from run state (e.g. the sampler's
        ``_process`` handle) round-trip through checkpoints this way; live
        resumable processes are not pickled at all — restore re-creates
        them from their :class:`ResumeSpec`.
        """
        state = self.__dict__.copy()
        state["_generator"] = None
        state["_target"] = None
        return state

    def __repr__(self) -> str:
        return "<Process {} {} at {:#x}>".format(
            self.name,
            "alive" if self.is_alive else "finished",
            id(self),
        )
