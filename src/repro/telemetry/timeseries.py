"""A run's sampled series: one packed frame, read through column views.

A :class:`SampleFrame` holds one float64 time column and one float64
column per named series, each an ``array('d')``: an append converts and
stores in C, and a pickle holds each column as packed bytes of its filled
length, 8 bytes a sample.  The sampler fills its frame with one
:meth:`SampleFrame.append` per tick, which checks the time once.

``frame[name]`` is a :class:`TimeSeries`, a view of one column with the
sample-and-hold statistics.  A standalone ``TimeSeries(name)`` views a
one-column frame of its own, so every series is stored the same way.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, List, Mapping, Sequence, Tuple

import numpy as np


class _Running:
    """A bounded column's aggregates, folded in one held interval per row."""

    __slots__ = ("first", "last", "max", "min", "integral", "above_s")

    def __init__(self) -> None:
        self.first = self.last = 0.0
        self.max = -math.inf
        self.min = math.inf
        self.integral = 0.0
        self.above_s = 0.0


class SampleFrame(Mapping[str, "TimeSeries"]):
    """One float64 time column plus one float64 column per named series.

    :meth:`append` adds a whole row: its time, which must not precede the
    last row's (NaN is refused), and one value per column in ``names``
    order.  ``frame[name]`` is that column's :class:`TimeSeries` view.

    Bounded mode (``bounded=True``, for long service runs) keeps no
    samples, only each column's running aggregates: first and last value,
    max, min, the sample-and-hold integral and the time held above
    :attr:`THRESHOLD`, accumulated left to right.  Memory stays flat over
    any horizon; the views answer the report statistics from the
    aggregates and refuse every sample read.
    """

    #: The one ``fraction_above`` threshold a bounded column answers: the
    #: report's violation-time threshold.  It must be known before the
    #: samples stream by.
    THRESHOLD = 1e-9

    def __init__(self, names: Sequence[str], bounded: bool = False) -> None:
        self.names = tuple(names)
        self.bounded = bounded
        #: Rows appended so far, and the times of the first and last.
        self.rows = 0
        self.first_t = 0.0
        self.last_t = -math.inf
        self._times = array("d")
        self._columns = () if bounded else tuple(array("d") for _ in self.names)
        self._running = tuple(_Running() for _ in self.names) if bounded else ()

    def append(self, t: float, values: Sequence[float]) -> None:
        """Add one row: time ``t`` and one value per column."""
        t = float(t)
        # Written so that NaN fails: every comparison with NaN is False.
        if not t >= self.last_t:
            raise ValueError(
                "{}: non-monotonic time {} after {}".format(
                    ", ".join(self.names), t, self.last_t
                )
            )
        if len(values) != len(self.names):
            raise ValueError(
                "a row of {} takes {} value(s), got {}".format(
                    ", ".join(self.names), len(self.names), len(values)
                )
            )
        if self.bounded:
            self._fold(t, values)
        else:
            try:
                for column, value in zip(self._columns, values):
                    column.append(value)
            except (TypeError, OverflowError):
                # A value that is not a float: drop the row's head.
                for column in self._columns:
                    del column[self.rows :]
                raise
            self._times.append(t)
        if not self.rows:
            self.first_t = t
        self.last_t = t
        self.rows += 1

    def _fold(self, t: float, values: Sequence[float]) -> None:
        """Fold one row into each bounded column's aggregates."""
        row = [float(value) for value in values]
        rows = self.rows
        dt = t - self.last_t
        threshold = self.THRESHOLD
        for run, value in zip(self._running, row):
            if rows:
                held = run.last
                run.integral += held * dt
                if held > threshold:
                    run.above_s += dt
            else:
                run.first = value
            run.last = value
            if value > run.max:
                run.max = value
            if value < run.min:
                run.min = value

    def __getitem__(self, name: str) -> "TimeSeries":
        try:
            col = self.names.index(name)
        except ValueError:
            raise KeyError(name) from None
        return TimeSeries._view(self, col)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


class TimeSeries:
    """(time, value) samples with non-decreasing time: one frame column.

    Values are interpreted as piecewise-constant (sample-and-hold) for
    integration, matching how the sampler produces them.  ``times`` and
    ``values`` are copies: a reader never holds the frame's buffer (an
    ``array`` that exports one cannot grow), and a write to them never
    reaches the frame.  A column of a bounded frame answers the
    statistics and refuses the sample reads.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._frame = SampleFrame((name,))
        self._col = 0

    @classmethod
    def _view(cls, frame: SampleFrame, col: int) -> "TimeSeries":
        view = cls.__new__(cls)
        view.name = frame.names[col]
        view._frame = frame
        view._col = col
        return view

    def append(self, t: float, value: float) -> None:
        self._frame.append(t, (value,))

    def __len__(self) -> int:
        return self._frame.rows

    def _samples(self, what: str) -> Tuple[array, array]:
        """The frame's time column and this column, as stored."""
        frame = self._frame
        if frame.bounded:
            raise RuntimeError(
                "bounded series {} keeps no samples ({} unavailable)".format(
                    self.name, what
                )
            )
        return frame._times, frame._columns[self._col]

    def _nonempty(self) -> SampleFrame:
        if not self._frame.rows:
            raise ValueError("empty series")
        return self._frame

    @property
    def times(self) -> np.ndarray:
        return np.array(self._samples("times")[0])

    @property
    def values(self) -> np.ndarray:
        return np.array(self._samples("values")[1])

    def last(self) -> Tuple[float, float]:
        frame = self._frame
        if not frame.rows:
            raise IndexError("empty series")
        if frame.bounded:
            return frame.last_t, frame._running[self._col].last
        return frame.last_t, frame._columns[self._col][-1]

    def mean(self) -> float:
        """Time-weighted mean over the sampled span (the sample, if one)."""
        frame = self._nonempty()
        if frame.rows < 2:
            if frame.bounded:
                return frame._running[self._col].first
            return frame._columns[self._col][0]
        span = frame.last_t - frame.first_t
        if not span > 0.0:
            raise ValueError(
                "series {}: {} samples at one instant have no time-weighted "
                "mean".format(self.name, frame.rows)
            )
        return self.integral() / span

    def max(self) -> float:
        frame = self._nonempty()
        if frame.bounded:
            return frame._running[self._col].max
        return max(frame._columns[self._col])

    def min(self) -> float:
        frame = self._nonempty()
        if frame.bounded:
            return frame._running[self._col].min
        return min(frame._columns[self._col])

    def integral(self) -> float:
        """Sample-and-hold integral of value over time."""
        frame = self._frame
        if frame.rows < 2:
            return 0.0
        if frame.bounded:
            return frame._running[self._col].integral
        times, values = map(np.array, self._samples("integral"))
        return float(np.sum(values[:-1] * np.diff(times)))

    def fraction_above(self, threshold: float) -> float:
        """Fraction of (held) time the value exceeded ``threshold``."""
        frame = self._frame
        if frame.bounded and threshold != frame.THRESHOLD:
            raise ValueError(
                "bounded series {} tracks threshold {}, not {}".format(
                    self.name, frame.THRESHOLD, threshold
                )
            )
        if frame.rows < 2:
            return 0.0
        span = frame.last_t - frame.first_t
        if span <= 0:
            return 0.0
        if frame.bounded:
            return frame._running[self._col].above_s / span
        times, values = map(np.array, self._samples("fraction_above"))
        above = (values[:-1] > threshold).astype(float)
        return float(np.sum(above * np.diff(times)) / span)

    def percentile(self, q: float) -> float:
        """Sample percentile (unweighted) — adequate for uniform sampling."""
        values = self._samples("percentile")[1]
        if not values:
            raise ValueError("empty series")
        return float(np.percentile(np.array(values), q))

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(*self._samples("points")))

    def downsample(self, stride: int) -> "TimeSeries":
        """Every ``stride``-th sample (for compact figure output)."""
        times, values = self._samples("downsample")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        out = TimeSeries(self.name)
        for t, value in zip(times[::stride], values[::stride]):
            out.append(t, value)
        return out

    def __repr__(self) -> str:
        return "<TimeSeries {} n={}>".format(self.name, len(self))
