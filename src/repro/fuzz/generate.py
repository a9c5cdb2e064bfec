"""Seeded scenario generation over the fuzz spec grammar.

Every draw flows through the registered ``fuzz`` RNG stream
(:func:`repro.core.seeding.stream_rng` with label ``"fuzz"``, qualified
by the campaign seed and the scenario index), so ``generate_spec(seed,
i)`` is a pure function: the same (seed, index) pair yields a
byte-identical spec in any process, and generating scenario *i* never
perturbs scenario *j*.

Feasibility: the generator sizes the host inventory against the *exact*
fleet the spec will materialize (``build_fleet`` is deterministic given
the fleet spec and the scenario seed), keeping ≥ 25 % memory slack so
initial placement always succeeds.  Overload is still reachable — demand
shapes, churn and faults are unconstrained — but a generated spec never
dies in setup.  The delta-debugging shrinker may of course produce
infeasible intermediate specs; the oracle classifies those as run
errors rather than invariant violations.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.policies import POLICIES
from repro.core.seeding import stream_rng
from repro.datacenter.faults import Brownout, FailureBurst
from repro.fold import left_sum
from repro.fuzz.spec import (
    ChurnShape,
    ClusterShape,
    FaultShape,
    FuzzSpec,
    PolicyShape,
    WorkloadShape,
)
from repro.telemetry.view import StalenessModel
from repro.workload.fleet import build_fleet

#: Host shapes the generator draws from (cores, mem_gb).
_HOST_SHAPES: Tuple[Tuple[float, float], ...] = (
    (8.0, 64.0),
    (16.0, 128.0),
    (32.0, 256.0),
)

#: Telemetry/demand refresh intervals worth exploring.
_EPOCH_CHOICES: Tuple[float, ...] = (30.0, 60.0, 120.0, 300.0)

#: Memory headroom kept over the exact fleet footprint at generation.
_MEM_SLACK = 1.25


def _weights(rng: np.random.Generator, n: int) -> List[float]:
    """``n`` non-degenerate mixture weights, rounded for tidy JSON."""
    raw = rng.random(n) + 0.05
    raw /= raw.sum()
    return [round(float(w), 4) for w in raw]


def _windows(
    rng: np.random.Generator, horizon_s: float, kind: str
) -> List[Tuple[float, float, float]]:
    """Up to two non-degenerate chaos windows inside the horizon."""
    count = int(rng.integers(0, 3))
    windows = []
    for _ in range(count):
        start = round(float(rng.uniform(0.0, horizon_s * 0.8)), 1)
        duration = round(float(rng.uniform(600.0, 3600.0)), 1)
        if kind == "burst":
            value = round(float(rng.uniform(0.3, 0.9)), 4)
        else:
            value = round(float(rng.uniform(2.0, 10.0)), 4)
        windows.append((start, start + duration, value))
    return windows


def generate_spec(campaign_seed: int, index: int) -> FuzzSpec:
    """Draw scenario ``index`` of the campaign seeded ``campaign_seed``."""
    rng = stream_rng("fuzz", campaign_seed, index)

    # -- policy ---------------------------------------------------------
    preset = str(rng.choice(sorted(POLICIES)))
    policy = PolicyShape(
        preset=preset,
        headroom=round(float(rng.uniform(0.05, 0.30)), 4),
        park_delay_rounds=int(rng.integers(0, 5)),
        max_parks_per_round=int(rng.integers(1, 5)),
        # Sample both management-plane architectures so the nightly
        # campaign exercises the decentralized plane too.
        plane="neat" if rng.random() < 0.5 else "centralized",
    )

    # -- horizon / epoch ------------------------------------------------
    horizon_s = round(float(rng.uniform(2.0, 8.0)) * 3600.0, 1)
    epoch_s = float(rng.choice(_EPOCH_CHOICES))

    # -- workload heterogeneity -----------------------------------------
    n_vms = int(rng.integers(4, 25))
    vcpu_weights = _weights(rng, 4)
    mem_gb_per_vcpu = float(rng.choice((2.0, 4.0, 8.0)))
    arch = _weights(rng, 4)
    shared_fraction = (
        round(float(rng.uniform(0.1, 0.6)), 4) if rng.random() < 0.5 else 0.0
    )
    shared_kind = str(rng.choice(("bursty", "diurnal")))
    priority = _weights(rng, 3)
    workload = WorkloadShape(
        n_vms=n_vms,
        vcpu_choices=(1, 2, 4, 8),
        vcpu_weights=tuple(vcpu_weights),
        mem_gb_per_vcpu=mem_gb_per_vcpu,
        diurnal_weight=arch[0],
        bursty_weight=arch[1],
        flat_weight=arch[2],
        spiky_weight=arch[3],
        shared_fraction=shared_fraction,
        shared_kind=shared_kind,
        gold_weight=priority[0],
        silver_weight=priority[1],
        bronze_weight=priority[2],
        noise_sigma=round(float(rng.uniform(0.0, 0.08)), 4),
    )

    # -- churn ----------------------------------------------------------
    if rng.random() < 0.5:
        churn = ChurnShape(
            rate_per_h=round(float(rng.uniform(0.5, 6.0)), 4),
            lifetime_s=round(float(rng.uniform(0.5, 6.0)) * 3600.0, 1),
        )
    else:
        churn = ChurnShape()

    # -- faults / chaos -------------------------------------------------
    wake_rate = (
        round(float(rng.uniform(0.01, 0.30)), 4) if rng.random() < 0.5 else 0.0
    )
    permanent = (
        round(float(rng.uniform(0.05, 0.5)), 4)
        if wake_rate > 0 and rng.random() < 0.5
        else 0.0
    )
    mttr_h = (
        round(float(rng.uniform(0.5, 4.0)), 4)
        if permanent > 0 and rng.random() < 0.7
        else 0.0
    )
    bursts = tuple(
        FailureBurst(start_s=s, end_s=e, rate=v)
        for s, e, v in _windows(rng, horizon_s, "burst")
    )
    brownouts = tuple(
        Brownout(start_s=s, end_s=e, scale=v)
        for s, e, v in _windows(rng, horizon_s, "brownout")
    )
    migration_rate = (
        round(float(rng.uniform(0.05, 0.40)), 4) if rng.random() < 0.5 else 0.0
    )
    faults = FaultShape(
        wake_failure_rate=wake_rate,
        permanent_fraction=permanent,
        mttr_h=mttr_h,
        bursts=bursts,
        brownouts=brownouts,
        migration_failure_rate=migration_rate,
    )

    # -- telemetry staleness --------------------------------------------
    if rng.random() < 0.5:
        telemetry = StalenessModel(
            delay_s=round(float(rng.uniform(0.0, 300.0)), 1),
            dropout_rate=round(float(rng.uniform(0.0, 0.3)), 4),
        )
    else:
        telemetry = StalenessModel()

    # -- cluster sized against the exact fleet --------------------------
    scenario_seed = int(rng.integers(0, 2**31 - 1))
    host_cores, host_mem_gb = _HOST_SHAPES[int(rng.integers(0, len(_HOST_SHAPES)))]
    while workload.mem_gb_per_vcpu * max(workload.vcpu_choices) > host_mem_gb:
        host_cores, host_mem_gb = host_cores * 2, host_mem_gb * 2
    fleet = build_fleet(workload.fleet_spec(horizon_s), seed=scenario_seed)
    total_mem = left_sum(vm.mem_gb for vm in fleet)
    min_hosts = max(1, int(np.ceil(total_mem * _MEM_SLACK / host_mem_gb)))
    cluster = ClusterShape(
        n_hosts=min_hosts + int(rng.integers(0, 4)),
        host_cores=host_cores,
        host_mem_gb=host_mem_gb,
    )

    return FuzzSpec(
        seed=scenario_seed,
        horizon_s=horizon_s,
        epoch_s=epoch_s,
        policy=policy,
        cluster=cluster,
        workload=workload,
        churn=churn,
        faults=faults,
        telemetry=telemetry,
    )


def generate_campaign(campaign_seed: int, count: int) -> List[FuzzSpec]:
    """The first ``count`` specs of the campaign, in index order."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [generate_spec(campaign_seed, i) for i in range(count)]
