"""Cluster-level energy-proportionality metrics (F10)."""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from repro.telemetry.timeseries import TimeSeries


def proportionality_curve(
    series: Mapping[str, TimeSeries],
    total_cores: float,
    peak_cluster_w: float,
    bins: int = 10,
) -> List[Tuple[float, float]]:
    """Binned (load fraction, normalized power) curve from a finished run.

    ``series`` is a run's sampler series by name (a live sampler's or an
    artifact's ``series``).  Pairs each demand sample with the
    simultaneous power sample, buckets by cluster load fraction, and
    returns the mean normalized power per bucket.  A perfectly
    proportional cluster lies on y = x; AlwaysOn is a horizontal line
    near its idle fraction.
    """
    if total_cores <= 0 or peak_cluster_w <= 0:
        raise ValueError("total_cores and peak_cluster_w must be positive")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    demand = series["demand_cores"].values
    power = series["power_w"].values
    if len(demand) != len(power) or len(demand) == 0:
        raise ValueError("sampler series empty or misaligned")
    load = np.clip(demand / total_cores, 0.0, 1.0)
    norm_power = power / peak_cluster_w
    edges = np.linspace(0.0, 1.0, bins + 1)
    curve = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (load >= lo) & (load < hi if hi < 1.0 else load <= hi)
        if not mask.any():
            continue
        curve.append((float((lo + hi) / 2.0), float(norm_power[mask].mean())))
    return curve


def proportionality_gap(
    series: Mapping[str, TimeSeries],
    total_cores: float,
    peak_cluster_w: float,
) -> float:
    """Mean |normalized power − load fraction| over the run (0 = ideal).

    The scalar version of F10: how far the managed cluster sits from the
    energy-proportional line, on average.
    """
    if total_cores <= 0 or peak_cluster_w <= 0:
        raise ValueError("total_cores and peak_cluster_w must be positive")
    demand = series["demand_cores"].values
    power = series["power_w"].values
    if len(demand) == 0:
        raise ValueError("empty sampler series")
    load = np.clip(demand / total_cores, 0.0, 1.0)
    norm_power = power / peak_cluster_w
    return float(np.mean(np.abs(norm_power - load)))
