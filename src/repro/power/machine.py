"""Simulation-aware host power-state machine.

Binds a :class:`~repro.power.ServerPowerProfile` to a simulation
environment and an :class:`~repro.power.EnergyMeter`, enforcing legal
transitions, transition latency, and correct power draw at every instant.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional, Tuple

if TYPE_CHECKING:
    from repro.telemetry.trace import TraceBuffer

from repro.power.energy import EnergyMeter
from repro.power.profiles import ServerPowerProfile
from repro.power.states import IllegalTransition, PowerState
from repro.trace_events import TransitionEnd, TransitionStart


class TransitionInProgress(RuntimeError):
    """Raised when a transition is requested while another is running."""


class HostPowerStateMachine:
    """Tracks one host's power state, draw, and transition book-keeping."""

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        profile: ServerPowerProfile,
        initial_state: PowerState = PowerState.ACTIVE,
        record_trace: bool = False,
        latency_rng=None,
        name: str = "",
        trace: Optional["TraceBuffer"] = None,
        wake_latency_scale: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.env = env
        self.profile = profile
        #: Host name used in decision-trace events (empty = anonymous).
        self.name = name
        #: Decision-trace sink; None disables tracing at zero cost.
        self._trace = trace
        #: Optional time-dependent multiplier applied to the sampled
        #: latency of transitions *into* ACTIVE (wake-latency brownouts,
        #: see :class:`repro.datacenter.faults.ChaosSchedule`).  The scaled
        #: value is what the trace records, so the once-sampled-latency
        #: invariant keeps holding.
        self.wake_latency_scale = wake_latency_scale
        self._state = initial_state
        self._utilization = 0.0
        self._dynamic_scale = 1.0
        #: Optional callback fired after every membership-relevant change
        #: (transition start, completion, or failure).  The owning
        #: :class:`~repro.datacenter.host.Host` wires this into the
        #: cluster's host index so views never rescan the inventory.
        self.on_change: Optional[Callable[[], None]] = None
        #: Optional RNG for per-transition latency jitter (see
        #: :meth:`repro.power.TransitionSpec.sample_latency_s`), or a
        #: zero-argument callable that makes it.  The machine calls it on
        #: the first transition with jitter, so a profile without jitter
        #: never builds the generator.
        self.latency_rng = latency_rng
        self._transition: Optional[Tuple[PowerState, PowerState]] = None
        # Hot-path bindings: ``_active_power`` runs once per utilization
        # step on every active host, and the profile is immutable, so the
        # idle draw and the calibration-curve lookup are hoisted here.
        self._idle_w = profile.idle_w
        self._power_at = profile.active_model.power_at
        self.meter = EnergyMeter(
            now=env.now,
            power_w=profile.stable_power(initial_state, 0.0),
            record=record_trace,
        )
        #: (src, dst) -> number of completed transitions.
        self.transition_counts: Counter = Counter()
        #: (src, dst) -> number of injected transition failures.
        self.failed_transitions: Counter = Counter()
        #: state -> cumulative seconds spent resting in it.
        self._residency: Dict[PowerState, float] = {s: 0.0 for s in PowerState}
        self._transit_time = 0.0
        self._last_mark = env.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> PowerState:
        """The stable state the machine is in (or is leaving, if moving)."""
        return self._state

    @property
    def in_transition(self) -> bool:
        return self._transition is not None

    @property
    def target_state(self) -> Optional[PowerState]:
        """Destination of the running transition, or None when stable."""
        return self._transition[1] if self._transition else None

    @property
    def is_active(self) -> bool:
        return self._state is PowerState.ACTIVE and not self.in_transition

    @property
    def utilization(self) -> float:
        return self._utilization

    def residency_s(self, state: PowerState) -> float:
        """Seconds spent resting in ``state`` so far (excludes transit)."""
        self._mark()
        return self._residency[state]

    @property
    def transit_time_s(self) -> float:
        """Total seconds spent inside transitions so far."""
        self._mark()
        return self._transit_time

    def power_w(self) -> float:
        """Instantaneous draw in watts."""
        return self.meter.power_w

    def energy_j(self) -> float:
        """Joules consumed since creation."""
        return self.meter.energy_j(self.env.now)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set_utilization(self, utilization: float, dynamic_scale: float = 1.0) -> None:
        """Update CPU utilization; affects draw only while stably ACTIVE.

        ``dynamic_scale`` multiplies the utilization-dependent share of
        active power (draw above idle) — the hook the DVFS governor uses.

        NOTE: ``ClusterSampler.sample_once`` inlines this method (and
        ``_active_power``) for the stably-ACTIVE case on its per-tick hot
        path — keep the two in lockstep when changing the arithmetic.
        """
        if not 0.0 <= utilization <= 1.0 + 1e-9:
            raise ValueError("utilization must be in [0, 1]")
        if dynamic_scale < 0:
            raise ValueError("dynamic_scale must be non-negative")
        self._utilization = min(utilization, 1.0)
        self._dynamic_scale = dynamic_scale
        if self._state is PowerState.ACTIVE and not self.in_transition:
            self.meter.set_power(self.env.now, self._active_power())

    def _active_power(self) -> float:
        idle = self._idle_w
        dynamic = self._power_at(self._utilization) - idle
        return idle + dynamic * self._dynamic_scale

    def transition_to(self, dst: PowerState, fail: bool = False) -> Generator:
        """Generator performing the transition; run it via ``env.process``.

        Raises :class:`IllegalTransition` (before any time passes) if the
        profile lacks the edge, and :class:`TransitionInProgress` if the
        machine is already moving.

        With ``fail=True`` (fault injection) the attempt consumes its full
        latency and energy but the machine falls back to the source state;
        the generator returns that source state and the attempt is counted
        in :attr:`failed_transitions` instead of :attr:`transition_counts`.
        """
        if self.in_transition:
            raise TransitionInProgress(
                "already moving {} -> {}".format(*self._transition)
            )
        if dst is self._state:
            raise IllegalTransition(self._state, dst)
        spec = self.profile.transition(self._state, dst)  # may raise
        return self._run_transition(dst, spec, fail)

    def _run_transition(self, dst: PowerState, spec, fail: bool = False) -> Generator:
        src = self._state
        self._mark()
        self._transition = (src, dst)
        self.meter.set_power(self.env.now, spec.power_w)
        if spec.jitter_s > 0.0 and callable(self.latency_rng):
            self.latency_rng = self.latency_rng()
        latency_s = spec.sample_latency_s(self.latency_rng)
        if dst is PowerState.ACTIVE and self.wake_latency_scale is not None:
            latency_s *= self.wake_latency_scale(self.env.now)
        if self._trace is not None:
            self._trace.emit(TransitionStart(
                self.env.now, self.name, src.value, dst.value, latency_s,
                spec.power_w,
            ))
        if self.on_change is not None:
            self.on_change()
        yield self.env.timeout(latency_s)
        self._mark()
        self._transition = None
        if fail:
            self.failed_transitions[(src, dst)] += 1
            if src is PowerState.ACTIVE:
                self.meter.set_power(self.env.now, self._active_power())
            else:
                self.meter.set_power(self.env.now, self.profile.stable_power(src))
            if self._trace is not None:
                self._trace.emit(TransitionEnd(
                    self.env.now, self.name, src.value, dst.value, src.value,
                    failed=True,
                ))
            if self.on_change is not None:
                self.on_change()
            return src
        self._state = dst
        self.transition_counts[(src, dst)] += 1
        if dst is PowerState.ACTIVE:
            self.meter.set_power(self.env.now, self._active_power())
        else:
            self.meter.set_power(self.env.now, self.profile.stable_power(dst))
        if self._trace is not None:
            self._trace.emit(TransitionEnd(
                self.env.now, self.name, src.value, dst.value, dst.value,
                failed=False,
            ))
        if self.on_change is not None:
            self.on_change()
        return dst

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mark(self) -> None:
        """Attribute elapsed time to the current residency bucket."""
        now = self.env.now
        elapsed = now - self._last_mark
        if elapsed <= 0:
            self._last_mark = now
            return
        if self.in_transition:
            self._transit_time += elapsed
        else:
            self._residency[self._state] += elapsed
        self._last_mark = now

    def __repr__(self) -> str:
        if self.in_transition:
            return "<HostPowerStateMachine {}->{} at t={}>".format(
                self._transition[0].value, self._transition[1].value, self.env.now
            )
        return "<HostPowerStateMachine {} u={:.2f} at t={}>".format(
            self._state.value, self._utilization, self.env.now
        )
