"""Demand traces: deterministic functions of simulated time.

A trace maps time (seconds) to a demand *fraction* in [0, 1] — the share
of a VM's configured vCPUs it wants at that instant.  Periodic analytic
traces (diurnal) evaluate directly; stochastic traces (bursty, noisy,
spiky) pre-draw a sample grid from a seeded RNG so every lookup is pure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, repeat
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.fold import left_sum

DAY_S = 86_400.0

#: Elements per ``math.cos``/``pow`` map in a diurnal block, taken in
#: whole rows (at least one).  A map goes through a list of Python
#: floats, and a whole fleet's block at once would hold half a million.
MAP_CHUNK = 32_768


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def trace_grids(traces: Sequence["Trace"], ticks: Sequence[float]) -> "np.ndarray":
    """Evaluate many traces over the same instants in a fixed number of array passes.

    Row ``i`` of the ``(len(traces), len(ticks))`` float64 result is
    **bit-identical** to the scalar ``traces[i].at(t)`` at every tick.
    The exactness rule: numpy may run only IEEE-754 ``+``, ``-``, ``*``
    and ``/`` (each is correctly rounded, so it equals the scalar
    expression evaluated in the same order); every other function stays
    the scalar libm call.  Every distinct trace reachable from ``traces``
    (composite parts included) is evaluated once, in one block per kind:

    * :class:`DiurnalTrace` rows do their arithmetic on the whole block,
      each row's phase, period, low and high a column, but map
      ``math.cos`` and ``pow`` over the elements, :data:`MAP_CHUNK` at a
      time: numpy's vectorized ``cos``/``power`` kernels may round
      differently from libm (on AVX-512 builds ``np.power`` does);
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
        n = len(ticks)
        columns = np.array([(d.phase_s, d.period_s, d.low, d.high) for d in block])
        phase, period, low, high = columns.T[:, :, None]  # (len(block), 1) each
        # ``at``'s expression in its evaluation order, one op over the
        # block each, in place in ``out`` (IEEE ``+`` and ``*`` commute).
        np.subtract(np.asarray(ticks, dtype=float), phase, out=out)
        out *= 2.0 * math.pi
        out /= period
        rows = max(1, MAP_CHUNK // max(n, 1))
        for a in range(0, len(block), rows):
            out[a : a + rows] = _map_rows(math.cos, out[a : a + rows])
        out += 1.0
        out *= 0.5
        # ``x ** 1.0 == x``: rows of sharpness 1.0 skip the map, as ``at`` does.
        sharp = [k for k, d in enumerate(block) if d.sharpness != 1.0]
        for a in range(0, len(sharp), rows):
            ks = sharp[a : a + rows]
            exponents = chain.from_iterable(repeat(block[k].sharpness, n) for k in ks)
            out[ks] = _map_rows(pow, out[ks], exponents)
        out *= high - low
        out += low
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


def _map_rows(fn: Any, rows: "np.ndarray", *args: Any) -> "np.ndarray":
    """``fn`` mapped over a 2-D block's elements in row order, as float64."""
    return np.fromiter(map(fn, rows.ravel().tolist(), *args), float, rows.size).reshape(
        rows.shape
    )


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


def _sealed(samples: "np.ndarray") -> "np.ndarray":
    """``samples``, refused with a value outside [0, 1] (NaN included), made read-only.

    A held trace may be shared by many runs (a sweep's fleet store), so
    its samples are never written after this check; the views a block
    hands out are read-only with it.  Pickles do not carry the flag.
    """
    # Written so that NaN fails: every comparison with NaN is False.  An
    # empty block has no minimum, and nothing to refuse.
    if samples.size and not (samples.min() >= 0.0 and samples.max() <= 1.0):
        raise ValueError("samples must be within [0, 1]")
    samples.flags.writeable = False
    return samples


def _trace_rng(seed: int) -> "np.random.Generator":
    """A drawn trace's own generator: its samples are the first draws of it."""
    return np.random.default_rng(seed)


#: The sample step of a drawn trace: a horizon shorter than this holds no sample.
TRACE_STEP_S = 60.0


def _sample_count(horizon_s: float, step_s: float) -> int:
    """Samples a drawn trace holds over ``[0, horizon_s)``: at least one."""
    if step_s <= 0:
        raise ValueError("step_s must be positive")
    n = int(horizon_s // step_s)
    if n < 1:
        raise ValueError("need at least one sample")
    return n


class SampledTrace(Trace):
    """A trace backed by a pre-drawn sample grid.

    Lookups are step-function reads; time beyond the grid wraps around
    (tiling), which keeps long simulations well-defined.

    The subclasses that draw their samples build many traces at once
    with :meth:`block`; their constructors are its one-row case.
    """

    def __init__(self, samples: Sequence[float], step_s: float = 60.0) -> None:
        if len(samples) == 0:
            raise ValueError("need at least one sample")
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        # A copy: the caller's array stays theirs to write.
        self._hold(_sealed(np.array(samples, dtype=float)), step_s, ())

    def _hold(self, samples: "np.ndarray", step_s: float, draw: Tuple[Any, ...]) -> None:
        """Take ``samples``, already checked, drawn from ``draw``'s arguments."""
        self._samples = samples
        self._n_samples = len(samples)
        self.step_s = step_s

    @staticmethod
    def _rows(draws: Sequence[Tuple[Any, ...]], horizon_s: float, step_s: float) -> "np.ndarray":
        """The checked, read-only ``(len(draws), n)`` sample block of a drawing subclass."""
        raise NotImplementedError

    @classmethod
    def block(
        cls, draws: Sequence[Tuple[Any, ...]], horizon_s: float, step_s: float = 60.0
    ) -> List["SampledTrace"]:
        """``[cls(*d, horizon_s=horizon_s, step_s=step_s) for d in draws]``, in block passes.

        Each ``d`` holds the constructor's leading arguments, up to
        ``horizon_s``.  The samples come from one block: each row is
        filled from its own seed, then one clip (where the class clips)
        and one range check cover the block, and each trace keeps a
        read-only view of its row (it pickles to the same bytes as a copy).
        """
        traces = []
        for row, draw in zip(cls._rows(draws, horizon_s, step_s), draws):
            trace = cls.__new__(cls)
            trace._hold(row, step_s, draw)
            traces.append(trace)
        return traces

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
        draw = (seed, base, burst, mean_gap_s, mean_burst_s)
        self._hold(self._rows([draw], horizon_s, step_s)[0], step_s, draw)

    def _hold(self, samples: "np.ndarray", step_s: float, draw: Tuple[Any, ...]) -> None:
        super()._hold(samples, step_s, draw)
        self.base = draw[1]
        self.burst = draw[2]

    @staticmethod
    def _rows(draws: Sequence[Tuple[Any, ...]], horizon_s: float, step_s: float) -> "np.ndarray":
        n = _sample_count(horizon_s, step_s)
        samples = np.empty((len(draws), n))
        for row, (seed, base, burst, mean_gap_s, mean_burst_s) in zip(samples, draws):
            if not 0.0 <= base <= burst <= 1.0:
                raise ValueError("need 0 <= base <= burst <= 1")
            rng = _trace_rng(seed)
            row.fill(base)
            t = float(rng.exponential(mean_gap_s))
            while t < horizon_s:
                length = float(rng.exponential(mean_burst_s))
                lo = int(t // step_s)
                hi = min(n, int((t + length) // step_s) + 1)
                row[lo:hi] = burst
                t += length + float(rng.exponential(mean_gap_s))
        return _sealed(samples)


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
        draw = (seed, base, spike, spikes_per_day, spike_s)
        self._hold(self._rows([draw], horizon_s, step_s)[0], step_s, draw)

    @staticmethod
    def _rows(draws: Sequence[Tuple[Any, ...]], horizon_s: float, step_s: float) -> "np.ndarray":
        n = _sample_count(horizon_s, step_s)
        samples = np.empty((len(draws), n))
        for row, (seed, base, spike, spikes_per_day, spike_s) in zip(samples, draws):
            rng = _trace_rng(seed)
            row.fill(base)
            count = int(rng.poisson(spikes_per_day * horizon_s / DAY_S))
            width = max(1, int(spike_s // step_s))
            for start in rng.integers(0, max(1, n - width), size=count):
                row[start : start + width] = spike
        np.clip(samples, 0.0, 1.0, out=samples)
        return _sealed(samples)


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
        draw = (inner, seed, sigma)
        self._hold(self._rows([draw], horizon_s, step_s)[0], step_s, draw)

    @staticmethod
    def _rows(draws: Sequence[Tuple[Any, ...]], horizon_s: float, step_s: float) -> "np.ndarray":
        # Every inner signal in one grid pass; each row then adds the first
        # draws of its own seed's generator.
        if any(sigma < 0 for _, _, sigma in draws):
            raise ValueError("sigma must be non-negative")
        n = _sample_count(horizon_s, step_s)
        samples = trace_grids([inner for inner, _, _ in draws], np.arange(n) * step_s)
        for row, (_, seed, sigma) in zip(samples, draws):
            row += _trace_rng(seed).normal(0.0, sigma, size=n)
        np.clip(samples, 0.0, 1.0, out=samples)
        return _sealed(samples)


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
