"""ACPI-style server power states and transition specifications."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class PowerState(enum.Enum):
    """Stable server power states.

    Mirrors the ACPI sleep states the paper characterizes on its prototype:

    * ``ACTIVE``    — S0; utilization-dependent power.
    * ``SLEEP``     — S3 suspend-to-RAM; the *low-latency* state the paper
      champions: seconds-scale exit latency at a few watts.
    * ``HIBERNATE`` — S4 suspend-to-disk; lower power than S3 on machines
      where RAM refresh dominates, but tens-of-seconds exit.
    * ``OFF``       — S5 soft-off; the traditional consolidation target,
      minutes-scale exit (full boot).
    """

    ACTIVE = "active"
    SLEEP = "sleep"
    HIBERNATE = "hibernate"
    OFF = "off"

    @property
    def is_parked(self) -> bool:
        """True for any state in which the host cannot run VMs."""
        return self is not PowerState.ACTIVE


class IllegalTransition(RuntimeError):
    """Raised when a transition not present in the profile is requested."""

    def __init__(self, src: PowerState, dst: PowerState) -> None:
        super().__init__("no transition {} -> {}".format(src.value, dst.value))
        self.src = src
        self.dst = dst


@dataclass(frozen=True)
class TransitionSpec:
    """Cost of moving between two stable power states.

    Attributes:
        latency_s: nominal wall-clock seconds the transition takes; the
            host is unavailable for the whole interval.
        power_w: average draw during the transition (nominal transition
            energy is therefore ``latency_s * power_w`` joules).
        jitter_s: half-width of uniform latency jitter.  Real suspend and
            especially resume/boot latencies vary run to run; a machine
            given an RNG samples ``latency_s ± jitter_s`` per transition.
    """

    latency_s: float
    power_w: float
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if self.power_w < 0:
            raise ValueError("power_w must be >= 0")
        if not 0.0 <= self.jitter_s <= self.latency_s:
            raise ValueError("jitter_s must be in [0, latency_s]")

    @property
    def energy_j(self) -> float:
        """Nominal energy consumed by one transition, in joules."""
        return self.latency_s * self.power_w

    def sample_latency_s(self, rng=None) -> float:
        """Latency for one concrete transition (nominal if no RNG/jitter)."""
        if rng is None or self.jitter_s <= 0.0:
            return self.latency_s
        return self.latency_s + float(rng.uniform(-self.jitter_s, self.jitter_s))


TransitionTable = Dict[Tuple[PowerState, PowerState], TransitionSpec]


def validate_transition_table(table: TransitionTable) -> None:
    """Check structural sanity of a transition table.

    Every parked state reachable from ACTIVE must also offer a way back,
    otherwise the management layer could strand capacity permanently.
    """
    for (src, dst), spec in table.items():
        if not isinstance(spec, TransitionSpec):
            raise TypeError("transition {}->{} has non-spec value".format(src, dst))
        if src is dst:
            raise ValueError("self-transition {}->{} is meaningless".format(src, dst))
    for (src, dst) in table:
        if src is PowerState.ACTIVE and (dst, PowerState.ACTIVE) not in table:
            raise ValueError(
                "state {} reachable from ACTIVE but has no exit path".format(dst.value)
            )
