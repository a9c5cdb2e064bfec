"""Workload characterization statistics.

Quantifies the properties of a demand signal that decide how much a
power-management policy can save and how hard it will be stressed:

* **peak-to-mean ratio** — the consolidation opportunity;
* **trough fraction** — share of time below a low-water level (parkable
  time);
* **burstiness** — mean absolute step between samples, normalized;
* **autocorrelation** at a lag — predictability for the look-ahead
  controllers;
* **correlation across VMs** — how simultaneous the demand swings are
  (what exposes wake latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fold import left_sum


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one sampled demand signal."""

    mean: float
    peak: float
    peak_to_mean: float
    trough_fraction: float
    burstiness: float
    autocorrelation: float


def sample_trace(trace, horizon_s: float, step_s: float = 300.0) -> np.ndarray:
    """Sample a trace onto a uniform grid."""
    if horizon_s <= 0 or step_s <= 0:
        raise ValueError("horizon_s and step_s must be positive")
    n = max(2, int(horizon_s // step_s))
    return np.array([trace.at(i * step_s) for i in range(n)])


def trace_stats(
    trace,
    horizon_s: float,
    step_s: float = 300.0,
    trough_level: float = 0.25,
    lag_steps: int = 12,
) -> TraceStats:
    """Characterize a single trace over ``horizon_s``."""
    samples = sample_trace(trace, horizon_s, step_s)
    return series_stats(samples, trough_level=trough_level, lag_steps=lag_steps)


def series_stats(
    samples: Sequence[float],
    trough_level: float = 0.25,
    lag_steps: int = 12,
) -> TraceStats:
    """Characterize an already-sampled signal."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples")
    if lag_steps < 1:
        raise ValueError("lag_steps must be >= 1")
    mean = float(arr.mean())
    peak = float(arr.max())
    steps = np.abs(np.diff(arr))
    scale = peak if peak > 0 else 1.0
    if arr.size > lag_steps and arr.std() > 1e-12:
        a = arr[:-lag_steps] - arr[:-lag_steps].mean()
        b = arr[lag_steps:] - arr[lag_steps:].mean()
        denominator = np.sqrt((a**2).sum() * (b**2).sum())
        autocorr = float((a * b).sum() / denominator) if denominator > 0 else 0.0
    else:
        autocorr = 1.0 if arr.std() <= 1e-12 else 0.0
    relative_trough = trough_level * (peak if peak > 0 else 1.0)
    return TraceStats(
        mean=mean,
        peak=peak,
        peak_to_mean=peak / mean if mean > 0 else float("inf"),
        trough_fraction=float((arr < relative_trough).mean()),
        burstiness=float(steps.mean() / scale),
        autocorrelation=autocorr,
    )


def fleet_correlation(
    vms: Sequence,
    horizon_s: float,
    step_s: float = 300.0,
    pairs: int = 200,
    seed: int = 0,
) -> float:
    """Mean pairwise demand correlation across a VM fleet.

    High values mean the fleet surges together — the regime that stresses
    wake latency.  Sampled over random VM pairs for large fleets.
    """
    if len(vms) < 2:
        raise ValueError("need at least two VMs")
    n = max(2, int(horizon_s // step_s))
    times = np.arange(n) * step_s
    signals = np.array(
        [[vm.demand_cores(t) for t in times] for vm in vms]
    )
    rng = np.random.default_rng(seed)
    total = 0.0
    count = 0
    for _ in range(min(pairs, len(vms) * (len(vms) - 1) // 2)):
        i, j = rng.choice(len(vms), size=2, replace=False)
        a, b = signals[i], signals[j]
        if a.std() < 1e-12 or b.std() < 1e-12:
            continue
        total += float(np.corrcoef(a, b)[0, 1])
        count += 1
    return total / count if count else 0.0


def aggregate_demand_series(
    vms: Sequence, horizon_s: float, step_s: float = 300.0
) -> np.ndarray:
    """Total fleet demand sampled onto a uniform grid (cores)."""
    n = max(2, int(horizon_s // step_s))
    times = np.arange(n) * step_s
    return np.array([left_sum(vm.demand_cores(t) for vm in vms) for t in times])
