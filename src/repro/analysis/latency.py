"""Burst-recovery analysis: how fast does the cluster absorb demand steps?

Complements the aggregate violation metrics with an *event-level* view:
each episode of undelivered demand is extracted from the shortfall series
and characterized by duration and magnitude.  With seconds-scale wake
latency, recovery episodes should last about one detection interval plus
one resume; with boot-scale latency they stretch to minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.fold import left_sum
from repro.telemetry.sampler import ClusterSampler
from repro.telemetry.timeseries import TimeSeries


@dataclass(frozen=True)
class ShortfallEpisode:
    """One contiguous run of undelivered demand."""

    start_s: float
    duration_s: float
    peak_cores: float
    deficit_core_s: float


def extract_episodes(
    shortfall: TimeSeries,
    threshold_cores: float = 1e-9,
) -> List[ShortfallEpisode]:
    """Split a sampled shortfall series into contiguous episodes.

    Samples are sample-and-hold; consecutive samples above ``threshold``
    belong to the same episode.  An episode's duration spans from its
    first above-threshold sample to the next below-threshold sample.
    """
    times = shortfall.times
    values = shortfall.values
    if len(times) == 0:
        return []
    episodes: List[ShortfallEpisode] = []
    start = None
    peak = 0.0
    deficit = 0.0
    for i, (t, v) in enumerate(zip(times, values)):
        width = (times[i + 1] - t) if i + 1 < len(times) else 0.0
        if v > threshold_cores:
            if start is None:
                start = t
                peak = 0.0
                deficit = 0.0
            peak = max(peak, float(v))
            deficit += float(v) * width
        elif start is not None:
            episodes.append(
                ShortfallEpisode(
                    start_s=float(start),
                    duration_s=float(t - start),
                    peak_cores=peak,
                    deficit_core_s=deficit,
                )
            )
            start = None
    if start is not None:
        episodes.append(
            ShortfallEpisode(
                start_s=float(start),
                duration_s=float(times[-1] - start),
                peak_cores=peak,
                deficit_core_s=deficit,
            )
        )
    return episodes


@dataclass(frozen=True)
class RecoveryStats:
    """Distribution summary of shortfall episodes for one run."""

    episodes: int
    mean_duration_s: float
    p95_duration_s: float
    max_duration_s: float
    total_deficit_core_s: float

    @staticmethod
    def empty() -> "RecoveryStats":
        return RecoveryStats(0, 0.0, 0.0, 0.0, 0.0)


def recovery_stats(
    sampler: ClusterSampler,
    threshold_cores: float = 1e-9,
) -> RecoveryStats:
    """Episode statistics from a finished run's sampler."""
    episodes = extract_episodes(sampler.series["shortfall_cores"], threshold_cores)
    if not episodes:
        return RecoveryStats.empty()
    durations = np.array([e.duration_s for e in episodes])
    return RecoveryStats(
        episodes=len(episodes),
        mean_duration_s=float(durations.mean()),
        p95_duration_s=float(np.percentile(durations, 95)),
        max_duration_s=float(durations.max()),
        total_deficit_core_s=float(left_sum(e.deficit_core_s for e in episodes)),
    )
