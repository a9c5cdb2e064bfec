"""Demand traces: deterministic functions of simulated time.

A trace maps time (seconds) to a demand *fraction* in [0, 1] — the share
of a VM's configured vCPUs it wants at that instant.  Periodic analytic
traces (diurnal) evaluate directly; stochastic traces (bursty, noisy,
spiky) pre-draw a sample grid from a seeded RNG so every lookup is pure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.fold import left_sum

DAY_S = 86_400.0


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def trace_grid(trace: "Trace", ticks: Sequence[float]) -> "np.ndarray":
    """``trace.at`` over many instants: the one-trace case of :func:`trace_grids`."""
    if isinstance(trace, CompositeTrace):
        return trace_grids([trace], ticks)[0]
    out = np.empty((1, len(ticks)))
    _leaf_rows(_kind(trace), [trace], ticks, out)
    return out[0]


def trace_grids(traces: Sequence["Trace"], ticks: Sequence[float]) -> "np.ndarray":
    """Evaluate many traces over the same instants in a fixed number of array passes.

    Row ``i`` of the ``(len(traces), len(ticks))`` float64 result is
    **bit-identical** to the scalar ``traces[i].at(t)`` at every tick.
    The exactness rule: numpy may run only IEEE-754 ``+``, ``-``, ``*``
    and ``/`` (each is correctly rounded, so it equals the scalar
    expression evaluated in the same order); every other function stays
    the scalar libm call.  Every distinct trace reachable from ``traces``
    (composite parts included) is evaluated once, in one block per kind:

    * :class:`DiurnalTrace` rows do their arithmetic on arrays but map
      ``math.cos`` and ``pow`` over the elements: numpy's vectorized
      ``cos``/``power`` kernels may round differently from libm (on
      AVX-512 builds ``np.power`` does);
    * :class:`FlatTrace` rows are their levels;
    * :class:`SampledTrace` blocks, one per grid shape, gather the sample
      columns the ticks read, wrapped grids included, from one stacked
      array: the float64 values scalar indexing returns;
    * :class:`CompositeTrace` blocks, one per nesting depth, start from
      zero and add ``w * part`` in part order, the scalar loop's
      multiply/add sequence per element, then clamp with the same
      ``< 0.0`` / ``> 1.0`` comparisons;
    * anything else is evaluated per instant with ``at``.

    ``ticks`` may be a sequence of numbers or an array; the scalar paths
    read its elements as the Python numbers ``at`` callers pass.
    """
    depth: Dict[int, int] = {}
    nodes: List["Trace"] = []

    def visit(trace: "Trace") -> int:
        if id(trace) not in depth:
            parts = trace.parts if isinstance(trace, CompositeTrace) else ()
            depth[id(trace)] = 1 + max([visit(p) for _, p in parts]) if parts else 0
            nodes.append(trace)
        return depth[id(trace)]

    for trace in traces:
        visit(trace)
    # One block per leaf kind, then one per composite depth: parts come
    # before the composites that hold them.
    blocks: Dict[Any, List["Trace"]] = {}
    for trace in nodes:
        blocks.setdefault(depth[id(trace)] or _kind(trace), []).append(trace)
    for d in sorted(k for k in blocks if type(k) is int):
        # Re-inserted after every leaf block, in depth order; most parts
        # first, so the composites with a ``j``-th part are a prefix.
        blocks[d] = sorted(blocks.pop(d), key=lambda c: -len(c.parts))
    row: Dict[int, int] = {}
    vals = np.empty((len(nodes), len(ticks)))
    for kind, block in blocks.items():
        a = len(row)
        row.update((id(trace), a + k) for k, trace in enumerate(block))
        if type(kind) is int:
            _blend(vals[a : len(row)], block, vals, row)
        else:
            _leaf_rows(kind, block, ticks, vals[a : len(row)])
    return vals[[row[id(trace)] for trace in traces]]


def _kind(trace: "Trace") -> Any:
    """The :func:`trace_grids` block key of a trace that is not a composite."""
    if isinstance(trace, SampledTrace):
        return (trace.step_s, trace._n_samples)
    return type(trace) if type(trace) in (DiurnalTrace, FlatTrace) else None


def _leaf_rows(kind: Any, block: List["Trace"], ticks: Sequence[float], out: "np.ndarray") -> None:
    """Write one row per trace of a block of one ``_kind`` into ``out``."""
    if kind is DiurnalTrace:
        t = np.asarray(ticks, dtype=float)
        for k, d in enumerate(block):
            # ``at``'s expression in its evaluation order, one array op each.
            angle = 2.0 * math.pi * (t - d.phase_s) / d.period_s
            base = 0.5 * (1.0 + np.fromiter(map(math.cos, angle.tolist()), float, len(t)))
            if d.sharpness != 1.0:
                base = np.fromiter(map(pow, base.tolist(), repeat(d.sharpness)), float, len(t))
            out[k] = d.low + (d.high - d.low) * base
    elif kind is FlatTrace:
        out[...] = np.array([f.level for f in block])[:, None]
    else:
        points = ticks.tolist() if isinstance(ticks, np.ndarray) else ticks
        if kind is None:
            for k, trace in enumerate(block):
                out[k] = [trace.at(t) for t in points]
            return
        step, size = kind
        idx = [int(t // step) % size for t in points]
        lo, hi = min(idx, default=0), max(idx, default=0) + 1
        span = np.array([s._samples[lo:hi] for s in block])
        np.take(span, [i - lo for i in idx], axis=1, out=out)


def _blend(
    out: "np.ndarray", block: List["CompositeTrace"], vals: "np.ndarray", row: Dict[int, int]
) -> None:
    """Composite rows from their parts' rows in ``vals``, one pass per part position."""
    out.fill(0.0)
    scratch = np.empty_like(out)
    for j in range(len(block[0].parts)):
        parts = [c.parts[j] for c in block if len(c.parts) > j]
        m = len(parts)
        term = np.take(vals, [row[id(p)] for _, p in parts], axis=0, out=scratch[:m])
        term *= np.array([w for w, _ in parts])[:, None]
        out[:m] += term
    # Elementwise _clamp01: replace with the exact constants the scalar
    # comparisons produce, leave everything else untouched.
    out[out < 0.0] = 0.0
    out[out > 1.0] = 1.0


class Trace:
    """Interface: ``at(t)`` returns demand fraction in [0, 1]."""

    def at(self, t: float) -> float:
        raise NotImplementedError

    def mean(self, horizon_s: float, step_s: float = 60.0) -> float:
        """Average demand over [0, horizon) sampled every ``step_s``."""
        if horizon_s <= 0 or step_s <= 0:
            raise ValueError("horizon and step must be positive")
        n = max(1, int(horizon_s // step_s))
        return left_sum(self.at(i * step_s) for i in range(n)) / n

    def peak(self, horizon_s: float, step_s: float = 60.0) -> float:
        """Maximum demand over [0, horizon) sampled every ``step_s``."""
        n = max(1, int(horizon_s // step_s))
        return max(self.at(i * step_s) for i in range(n))


class FlatTrace(Trace):
    """Constant demand."""

    def __init__(self, level: float) -> None:
        if not 0.0 <= level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        self.level = level

    def at(self, t: float) -> float:
        return self.level


class StepTrace(Trace):
    """Piecewise-constant demand defined by (start_time, level) breakpoints."""

    def __init__(self, steps: Sequence[Tuple[float, float]]) -> None:
        if not steps:
            raise ValueError("need at least one step")
        ordered = sorted(steps)
        if ordered[0][0] > 0.0:
            ordered.insert(0, (0.0, 0.0))
        for _, level in ordered:
            if not 0.0 <= level <= 1.0:
                raise ValueError("levels must be in [0, 1]")
        self._times = [s[0] for s in ordered]
        self._levels = [s[1] for s in ordered]

    def at(self, t: float) -> float:
        # bisect on the plain Python list matches np.searchsorted
        # side="right" exactly, without the per-call array conversion.
        idx = bisect_right(self._times, t) - 1
        return self._levels[max(idx, 0)]


class DiurnalTrace(Trace):
    """Day/night cycle: raised-cosine between ``low`` and ``high``.

    ``peak_hour`` places the maximum; ``sharpness`` > 1 narrows the peak
    (models business-hours plateaus when < 1, spiky midday peaks when > 1).
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 0.8,
        period_s: float = DAY_S,
        peak_hour: float = 14.0,
        sharpness: float = 1.0,
    ) -> None:
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")
        if period_s <= 0 or sharpness <= 0:
            raise ValueError("period_s and sharpness must be positive")
        self.low = low
        self.high = high
        self.period_s = period_s
        self.phase_s = peak_hour * 3600.0
        self.sharpness = sharpness

    def at(self, t: float) -> float:
        angle = 2.0 * math.pi * (t - self.phase_s) / self.period_s
        base = 0.5 * (1.0 + math.cos(angle))  # 1 at the peak, 0 at the trough
        # ``x ** 1.0 == x`` exactly (IEEE 754 pow), so the common
        # sharpness=1.0 case skips the pow call without changing a bit.
        shaped = base if self.sharpness == 1.0 else base ** self.sharpness
        return self.low + (self.high - self.low) * shaped


class SampledTrace(Trace):
    """A trace backed by a pre-drawn sample grid.

    Lookups are step-function reads; time beyond the grid wraps around
    (tiling), which keeps long simulations well-defined.
    """

    def __init__(self, samples: Sequence[float], step_s: float = 60.0) -> None:
        if len(samples) == 0:
            raise ValueError("need at least one sample")
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        arr = np.asarray(samples, dtype=float)
        # Written so that NaN fails: every comparison with NaN is False.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("samples must be within [0, 1]")
        self._samples = arr
        self._n_samples = len(arr)
        self.step_s = step_s

    @property
    def horizon_s(self) -> float:
        return len(self._samples) * self.step_s

    def at(self, t: float) -> float:
        return self._samples.item(int(t // self.step_s) % self._n_samples)


class BurstyTrace(SampledTrace):
    """Low baseline punctuated by sustained bursts.

    Burst arrivals are Poisson with mean spacing ``mean_gap_s``; burst
    lengths are exponential with mean ``mean_burst_s``.  This is the
    workload that punishes slow wake-up: demand jumps by ``burst - base``
    with no warning.
    """

    def __init__(
        self,
        seed: int,
        base: float = 0.1,
        burst: float = 0.85,
        mean_gap_s: float = 2.0 * 3600,
        mean_burst_s: float = 20.0 * 60,
        horizon_s: float = 2 * DAY_S,
        step_s: float = 60.0,
    ) -> None:
        if not 0.0 <= base <= burst <= 1.0:
            raise ValueError("need 0 <= base <= burst <= 1")
        rng = np.random.default_rng(seed)
        n = int(horizon_s // step_s)
        samples = np.full(n, base)
        t = float(rng.exponential(mean_gap_s))
        while t < horizon_s:
            length = float(rng.exponential(mean_burst_s))
            lo = int(t // step_s)
            hi = min(n, int((t + length) // step_s) + 1)
            samples[lo:hi] = burst
            t += length + float(rng.exponential(mean_gap_s))
        super().__init__(samples, step_s)
        self.base = base
        self.burst = burst


class SpikeTrace(SampledTrace):
    """Mostly idle with rare, short, tall spikes (batch / cron style)."""

    def __init__(
        self,
        seed: int,
        base: float = 0.05,
        spike: float = 1.0,
        spikes_per_day: float = 6.0,
        spike_s: float = 300.0,
        horizon_s: float = 2 * DAY_S,
        step_s: float = 60.0,
    ) -> None:
        rng = np.random.default_rng(seed)
        n = int(horizon_s // step_s)
        samples = np.full(n, base)
        expected = spikes_per_day * horizon_s / DAY_S
        count = int(rng.poisson(expected))
        width = max(1, int(spike_s // step_s))
        for start in rng.integers(0, max(1, n - width), size=count):
            samples[start : start + width] = spike
        super().__init__(np.clip(samples, 0.0, 1.0), step_s)


class NoisyTrace(SampledTrace):
    """Wraps another trace with bounded Gaussian noise (pre-sampled)."""

    def __init__(
        self,
        inner: Trace,
        seed: int,
        sigma: float = 0.05,
        horizon_s: float = 2 * DAY_S,
        step_s: float = 60.0,
    ) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        rng = np.random.default_rng(seed)
        n = int(horizon_s // step_s)
        base = trace_grid(inner, np.arange(n) * step_s)
        noisy = np.clip(base + rng.normal(0.0, sigma, size=n), 0.0, 1.0)
        super().__init__(noisy, step_s)


class PlateauTrace(Trace):
    """Business-hours plateau: ramp up, hold ``high``, ramp down, idle.

    A sharper model of interactive enterprise load than the raised cosine:
    flat-out during working hours, near-idle at night, with linear ramps
    of ``ramp_s`` on each side.
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 0.8,
        start_hour: float = 8.0,
        end_hour: float = 18.0,
        ramp_s: float = 3600.0,
        period_s: float = DAY_S,
    ) -> None:
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")
        if not 0.0 <= start_hour < end_hour <= 24.0:
            raise ValueError("need 0 <= start_hour < end_hour <= 24")
        if ramp_s < 0 or period_s <= 0:
            raise ValueError("ramp_s must be >= 0 and period_s positive")
        if 2 * ramp_s > (end_hour - start_hour) * 3600.0:
            raise ValueError("ramps overlap: plateau shorter than 2*ramp_s")
        self.low = low
        self.high = high
        self.start_s = start_hour * 3600.0
        self.end_s = end_hour * 3600.0
        self.ramp_s = ramp_s
        self.period_s = period_s

    def at(self, t: float) -> float:
        tod = t % self.period_s
        if tod < self.start_s or tod >= self.end_s:
            return self.low
        if self.ramp_s > 0 and tod < self.start_s + self.ramp_s:
            frac = (tod - self.start_s) / self.ramp_s
            return self.low + (self.high - self.low) * frac
        if self.ramp_s > 0 and tod >= self.end_s - self.ramp_s:
            frac = (self.end_s - tod) / self.ramp_s
            return self.low + (self.high - self.low) * frac
        return self.high


class WeeklyTrace(Trace):
    """Weekday/weekend modulation of an inner trace.

    Days 0–4 of each 7-day cycle use ``inner`` unchanged; days 5–6 scale
    it by ``weekend_factor`` (floored at ``floor``), capturing the deeper
    weekend troughs that make consolidation opportunities larger.
    """

    def __init__(
        self,
        inner: Trace,
        weekend_factor: float = 0.35,
        floor: float = 0.02,
    ) -> None:
        if not 0.0 <= weekend_factor <= 1.0:
            raise ValueError("weekend_factor must be in [0, 1]")
        if not 0.0 <= floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")
        self.inner = inner
        self.weekend_factor = weekend_factor
        self.floor = floor

    def at(self, t: float) -> float:
        day = int(t // DAY_S) % 7
        value = self.inner.at(t)
        if day >= 5:
            value = max(self.floor, value * self.weekend_factor)
        return _clamp01(value)


class CompositeTrace(Trace):
    """Weighted sum of traces, clamped to [0, 1]."""

    def __init__(self, parts: Sequence[Tuple[float, Trace]]) -> None:
        if not parts:
            raise ValueError("need at least one part")
        for weight, _ in parts:
            if weight < 0:
                raise ValueError("weights must be non-negative")
        self.parts = list(parts)

    def at(self, t: float) -> float:
        # Explicit loop, not ``sum()`` over a genexpr: this runs once per
        # VM per sampler tick, and the generator frame is measurable at
        # fleet scale.  ``sum`` starts from int 0 and ``0 + v == 0.0 + v``
        # exactly, so the accumulation is bit-identical.
        total = 0.0
        for w, trace in self.parts:
            total += w * trace.at(t)
        return _clamp01(total)


class ScaledTrace(Trace):
    """``inner`` scaled by a factor and clamped to [0, 1]."""

    def __init__(self, inner: Trace, factor: float) -> None:
        if factor < 0:
            raise ValueError("factor must be non-negative")
        self.inner = inner
        self.factor = factor

    def at(self, t: float) -> float:
        return _clamp01(self.inner.at(t) * self.factor)
