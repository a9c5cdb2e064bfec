"""Piecewise-constant power integration."""

from __future__ import annotations

from typing import List, Optional, Tuple


class EnergyMeter:
    """Integrates a piecewise-constant power signal over simulated time.

    The owner calls :meth:`set_power` whenever draw changes (state change,
    utilization step).  Energy is accumulated lazily, so frequent reads are
    cheap and updates are O(1).
    """

    def __init__(self, now: float = 0.0, power_w: float = 0.0, record: bool = False) -> None:
        if power_w < 0:
            raise ValueError("power must be non-negative")
        self._last_time = now
        self._power_w = power_w
        self._energy_j = 0.0
        self._trace: Optional[List[Tuple[float, float]]] = [] if record else None
        if record:
            self._trace.append((now, power_w))

    @property
    def power_w(self) -> float:
        """Current instantaneous draw in watts."""
        return self._power_w

    def set_power(self, now: float, power_w: float) -> None:
        """Change the draw to ``power_w`` effective at time ``now``."""
        if power_w < 0:
            raise ValueError("power must be non-negative")
        # _accumulate, inlined: the sampler's tick calls this per host.
        last = self._last_time
        if now < last - 1e-9:
            raise ValueError("time went backwards: {} < {}".format(now, last))
        if now > last:
            self._energy_j += self._power_w * (now - last)
            self._last_time = now
        self._power_w = power_w
        # Exact != is intentional: this dedups change-points recorded with
        # the *same* float, not quantities from independent arithmetic.
        if self._trace is not None and (
            not self._trace or self._trace[-1][1] != power_w  # reprolint: disable=RL004
        ):
            self._trace.append((now, power_w))

    def energy_j(self, now: float) -> float:
        """Total joules consumed through time ``now``."""
        self._accumulate(now)
        return self._energy_j

    def energy_kwh(self, now: float) -> float:
        return self.energy_j(now) / 3.6e6

    @property
    def trace(self) -> List[Tuple[float, float]]:
        """(time, watts) change points, if recording was enabled."""
        if self._trace is None:
            raise RuntimeError("meter was created with record=False")
        return list(self._trace)

    def _accumulate(self, now: float) -> None:
        if now < self._last_time - 1e-9:
            raise ValueError(
                "time went backwards: {} < {}".format(now, self._last_time)
            )
        if now > self._last_time:
            self._energy_j += self._power_w * (now - self._last_time)
            self._last_time = now

    def __repr__(self) -> str:
        return "<EnergyMeter {}W, {:.1f}J through t={}>".format(
            self._power_w, self._energy_j, self._last_time
        )
