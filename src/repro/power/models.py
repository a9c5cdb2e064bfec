"""Utilization-to-power models for the ACTIVE state.

Enterprise servers of the paper's era drew roughly half of their peak power
while completely idle — the motivating observation for parking whole hosts
rather than relying on DVFS alone.  Two models are provided:

* :class:`LinearPowerModel` — ``P(u) = idle + (peak - idle) * u``; the
  standard first-order model used throughout datacenter literature.
* :class:`PiecewisePowerModel` — interpolates measured (utilization, watts)
  points, e.g. the 11-point SPECpower_ssj load line, capturing the concave
  shape real machines show.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

import numpy as np


class PowerModel:
    """Interface: map utilization in [0, 1] to active-state watts."""

    def power_at(self, utilization: float) -> float:
        raise NotImplementedError

    @property
    def idle_w(self) -> float:
        return self.power_at(0.0)

    @property
    def peak_w(self) -> float:
        return self.power_at(1.0)

    def proportionality_index(self, samples: int = 101) -> float:
        """Energy-proportionality index in [0, 1].

        1 means perfectly proportional (idle draws nothing and the curve is
        linear through the origin); computed as 1 minus the mean absolute
        deviation from the ideal proportional line, normalized by peak.
        """
        peak = self.peak_w
        if peak <= 0:
            raise ValueError("peak power must be positive")
        deviation = 0.0
        for i in range(samples):
            u = i / (samples - 1)
            deviation += abs(self.power_at(u) - u * peak) / peak
        return 1.0 - deviation / samples

    def power_at_grid(self, utilizations: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`power_at` over a float64 utilization array.

        The base implementation just loops; subclasses override it with a
        batched computation whose per-element operation sequence matches
        the scalar method exactly, so every returned watt is bit-identical
        to ``power_at`` on the same input.
        """
        return np.array([self.power_at(float(u)) for u in utilizations])

    @staticmethod
    def _check_utilization(utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0 + 1e-9:
            raise ValueError(
                "utilization must be in [0, 1], got {!r}".format(utilization)
            )
        return min(utilization, 1.0)


class LinearPowerModel(PowerModel):
    """``P(u) = idle + (peak - idle) * u``."""

    def __init__(self, idle_w: float, peak_w: float) -> None:
        if idle_w < 0 or peak_w < idle_w:
            raise ValueError(
                "need 0 <= idle_w <= peak_w, got {} / {}".format(idle_w, peak_w)
            )
        self._idle_w = idle_w
        self._peak_w = peak_w

    def power_at(self, utilization: float) -> float:
        u = self._check_utilization(utilization)
        return self._idle_w + (self._peak_w - self._idle_w) * u

    def power_at_grid(self, utilizations: "np.ndarray") -> "np.ndarray":
        # Elementwise float64 mul/add round exactly like the scalar
        # expression, so this is bit-identical to power_at per element.
        u = np.asarray(utilizations, dtype=float)
        return self._idle_w + (self._peak_w - self._idle_w) * u

    def __repr__(self) -> str:
        return "LinearPowerModel(idle_w={}, peak_w={})".format(
            self._idle_w, self._peak_w
        )


class PiecewisePowerModel(PowerModel):
    """Linear interpolation through measured (utilization, watts) points."""

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("need at least two calibration points")
        pts = sorted(points)
        us = [u for u, _ in pts]
        if len(set(us)) != len(us):
            raise ValueError("duplicate utilization points")
        if us[0] != 0.0 or us[-1] != 1.0:
            raise ValueError("points must span utilization 0.0 .. 1.0")
        for _, w in pts:
            if w < 0:
                raise ValueError("negative wattage in calibration point")
        self._us: List[float] = us
        self._ws: List[float] = [w for _, w in pts]
        # The knots as arrays, and at ``j`` segment j's rises
        # ``us[j + 1] - us[j]`` and ``ws[j + 1] - ws[j]``.
        self._grid_us = np.array(us)
        self._grid_ws = np.array(self._ws)
        self._grid_du = np.diff(self._grid_us)
        self._grid_dw = np.diff(self._grid_ws)

    def power_at(self, utilization: float) -> float:
        u = self._check_utilization(utilization)
        hi = bisect.bisect_left(self._us, u)
        if hi == 0:
            return self._ws[0]
        if self._us[hi - 1] == u:
            return self._ws[hi - 1]
        lo = hi - 1
        span = self._us[hi] - self._us[lo]
        frac = (u - self._us[lo]) / span
        return self._ws[lo] + (self._ws[hi] - self._ws[lo]) * frac

    def power_at_grid(self, utilizations: "np.ndarray") -> "np.ndarray":
        """Batched interpolation, bit-identical to :meth:`power_at`.

        ``utilizations`` must already lie in [0, 1] (the callers pass
        ``min(demand / cores, 1.0)`` grids).  Each element follows the
        scalar branch structure: the segment is ``bisect_left``'s upper
        knot less one, clamped to segment 0 at ``u == 0``, where the
        ``where`` returns ``ws[0]`` as the scalar ``hi == 0`` branch does.
        The rises are the scalar method's differences, and the
        interpolation runs its float64 operation sequence elementwise,
        so every watt matches to the last bit.  Knots are distinct, so
        no segment divides by zero.
        """
        u = np.asarray(utilizations, dtype=float)
        lo = np.searchsorted(self._grid_us[1:], u, side="left")
        us_lo = self._grid_us.take(lo)
        ws_lo = self._grid_ws.take(lo)
        interp = ws_lo + self._grid_dw.take(lo) * ((u - us_lo) / self._grid_du.take(lo))
        return np.where(us_lo == u, ws_lo, interp)

    def __repr__(self) -> str:
        return "PiecewisePowerModel({} points, idle={}W, peak={}W)".format(
            len(self._us), self._ws[0], self._ws[-1]
        )


def specpower_like_model(idle_w: float = 155.0, peak_w: float = 315.0) -> PiecewisePowerModel:
    """An 11-point concave load line shaped like SPECpower_ssj2008 results.

    The relative shape (fast power growth at low load, flattening near
    peak) is taken from typical published 2012-era 2-socket results; the
    endpoints are scaled to ``idle_w`` / ``peak_w``.
    """
    # Fraction of the idle->peak dynamic range consumed at each 10% load step.
    shape = [0.0, 0.22, 0.38, 0.50, 0.60, 0.68, 0.76, 0.83, 0.89, 0.95, 1.0]
    span = peak_w - idle_w
    points = [(i / 10.0, idle_w + span * f) for i, f in enumerate(shape)]
    return PiecewisePowerModel(points)
