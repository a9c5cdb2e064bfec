"""Fleet construction: populate a simulation with a realistic VM mix."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.datacenter.vm import Priority, VM
from repro.fold import left_sum
from repro.workload.traces import (
    BurstyTrace,
    CompositeTrace,
    DiurnalTrace,
    FlatTrace,
    NoisyTrace,
    SampledTrace,
    SpikeTrace,
    Trace,
)


_PRIORITY_BY_NAME = {
    "gold": Priority.GOLD,
    "silver": Priority.SILVER,
    "bronze": Priority.BRONZE,
}


def _check_weights(label: str, weights: Iterable[float]) -> None:
    """Reject the weights ``Generator.choice`` would refuse.

    Class draws search a CDF built once per fleet, which would accept a
    negative, NaN or infinite weight silently.
    """
    values = list(weights)
    if not (all(0.0 <= w < math.inf for w in values) and 0.0 < left_sum(values) < math.inf):
        raise ValueError("{} must be finite, >= 0 and sum to > 0".format(label))


@dataclass
class FleetSpec:
    """Parameters for a synthetic enterprise VM fleet.

    ``archetype_weights`` splits the fleet between demand shapes:
    ``diurnal`` (interactive/business apps), ``bursty`` (on-demand
    services), ``flat`` (steady back-ends), ``spiky`` (batch/cron).
    """

    n_vms: int = 100
    vcpu_choices: Sequence[int] = (1, 2, 4, 8)
    vcpu_weights: Sequence[float] = (0.35, 0.35, 0.2, 0.1)
    mem_gb_per_vcpu: float = 4.0
    archetype_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "diurnal": 0.55,
            "bursty": 0.2,
            "flat": 0.15,
            "spiky": 0.1,
        }
    )
    horizon_s: float = 2 * 86_400.0
    noise_sigma: float = 0.04
    #: Fraction of every VM's demand driven by a single cluster-wide
    #: signal (flash crowds / correlated business load).  0 disables it.
    shared_fraction: float = 0.0
    #: Shape of the shared signal: "bursty" or "diurnal".
    shared_kind: str = "bursty"
    #: Service-class mix (see :class:`repro.datacenter.Priority`).
    priority_weights: Dict[str, float] = field(
        default_factory=lambda: {"gold": 0.2, "silver": 0.3, "bronze": 0.5}
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        if self.shared_kind not in ("bursty", "diurnal"):
            raise ValueError("shared_kind must be 'bursty' or 'diurnal'")
        known_classes = {"gold", "silver", "bronze"}
        unknown_classes = set(self.priority_weights) - known_classes
        if unknown_classes:
            raise ValueError(
                "unknown priority classes: {}".format(sorted(unknown_classes))
            )
        _check_weights("priority weights", self.priority_weights.values())
        if self.n_vms < 1:
            raise ValueError("n_vms must be >= 1")
        if len(self.vcpu_choices) != len(self.vcpu_weights):
            raise ValueError("vcpu choices/weights length mismatch")
        _check_weights("vcpu weights", self.vcpu_weights)
        _check_weights("archetype weights", self.archetype_weights.values())
        known = {"diurnal", "bursty", "flat", "spiky"}
        unknown = set(self.archetype_weights) - known
        if unknown:
            raise ValueError("unknown archetypes: {}".format(sorted(unknown)))


def enterprise_mix(n_vms: int = 100, horizon_s: float = 2 * 86_400.0) -> FleetSpec:
    """The default mix used throughout the evaluation benches."""
    return FleetSpec(n_vms=n_vms, horizon_s=horizon_s)


def _draw_trace(
    archetype: str, rng: np.random.Generator, spec: FleetSpec
) -> Tuple[Type[SampledTrace], Tuple[Any, ...]]:
    """One VM's trace class and its leading constructor arguments, drawn from ``rng``."""
    seed = int(rng.integers(0, 2**31 - 1))
    if archetype == "diurnal":
        inner = DiurnalTrace(
            low=float(rng.uniform(0.05, 0.2)),
            high=float(rng.uniform(0.5, 0.9)),
            peak_hour=float(rng.uniform(10.0, 17.0)),
            sharpness=float(rng.uniform(0.8, 2.0)),
        )
        return NoisyTrace, (inner, seed, spec.noise_sigma)
    if archetype == "bursty":
        return BurstyTrace, (
            seed,
            float(rng.uniform(0.05, 0.15)),
            float(rng.uniform(0.6, 0.95)),
            float(rng.uniform(1.0, 4.0)) * 3600.0,
            float(rng.uniform(10.0, 40.0)) * 60.0,
        )
    if archetype == "flat":
        return NoisyTrace, (FlatTrace(float(rng.uniform(0.15, 0.5))), seed, spec.noise_sigma)
    if archetype == "spiky":
        return SpikeTrace, (
            seed,
            float(rng.uniform(0.02, 0.08)),
            1.0,
            float(rng.uniform(3.0, 10.0)),
            float(rng.uniform(2.0, 10.0)) * 60.0,
        )
    raise ValueError("unknown archetype {!r}".format(archetype))


def _make_shared_trace(spec: FleetSpec, rng: np.random.Generator) -> Trace:
    seed = int(rng.integers(0, 2**31 - 1))
    if spec.shared_kind == "bursty":
        return BurstyTrace(
            seed,
            base=0.1,
            burst=0.95,
            mean_gap_s=3.0 * 3600.0,
            mean_burst_s=30.0 * 60.0,
            horizon_s=spec.horizon_s,
        )
    return DiurnalTrace(low=0.1, high=0.9)


def assign_replica_groups(
    vms: Sequence[VM],
    n_groups: int,
    replicas: int = 2,
    seed: int = 0,
) -> None:
    """Mark random VMs as HA replica sets (anti-affinity groups).

    ``n_groups`` disjoint groups of ``replicas`` VMs each are drawn from
    the fleet; members of one group refuse to share a host.  Mutates the
    VMs in place.
    """
    if replicas < 2:
        raise ValueError("a replica set needs at least 2 members")
    needed = n_groups * replicas
    if needed > len(vms):
        raise ValueError(
            "need {} VMs for {} groups x {} replicas, have {}".format(
                needed, n_groups, replicas, len(vms)
            )
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(vms), size=needed, replace=False)
    for g in range(n_groups):
        for r in range(replicas):
            vms[int(chosen[g * replicas + r])].anti_affinity_group = "ha-{:03d}".format(g)


class _Choice:
    """``rng.choice(values, p=w / w.sum())`` from a CDF built once.

    The CDF is the one ``Generator.choice`` builds (``cdf = p.cumsum()``,
    ``cdf /= cdf[-1]``) and searches with ``searchsorted(side="right")``
    for one ``rng.random()`` uniform; ``bisect_right`` is that search.
    So a draw consumes the same uniform and picks the same value.
    """

    def __init__(self, values: Sequence[Any], weights: Sequence[float]) -> None:
        p = np.array(weights, dtype=float)
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.values = list(values)
        self.cdf: List[float] = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> Any:
        return self.values[bisect_right(self.cdf, rng.random())]


class _VmDraws:
    """Draws the VMs of ``spec``, for fleets and churn alike.

    Each VM takes its RNG draws in one order: archetype, vCPUs, trace seed
    and parameters, priority.  No draw reads a built trace, so every VM's
    draws come first and the traces are built afterwards, one block per
    trace class (:meth:`~repro.workload.traces.SampledTrace.block`).
    """

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        archetypes = sorted(spec.archetype_weights)
        classes = sorted(spec.priority_weights)
        self._archetype = _Choice(archetypes, [spec.archetype_weights[a] for a in archetypes])
        self._vcpus = _Choice(spec.vcpu_choices, spec.vcpu_weights)
        self._priority = _Choice(
            [_PRIORITY_BY_NAME[c] for c in classes],
            [spec.priority_weights[c] for c in classes],
        )

    def draw(
        self, rng: np.random.Generator, names: Sequence[str], shared: Optional[Trace] = None
    ) -> List[VM]:
        """One VM per name; ``shared`` is blended in at ``spec.shared_fraction``."""
        spec = self.spec
        drawn = []
        # Trace class -> (VM positions, constructor arguments), in VM order.
        blocks: Dict[Type[SampledTrace], Tuple[List[int], List[Tuple[Any, ...]]]] = {}
        for k, name in enumerate(names):
            archetype = self._archetype.draw(rng)
            vcpus = int(self._vcpus.draw(rng))
            cls, args = _draw_trace(archetype, rng, spec)
            positions, arguments = blocks.setdefault(cls, ([], []))
            positions.append(k)
            arguments.append(args)
            drawn.append((name, vcpus, self._priority.draw(rng)))
        traces: Dict[int, Trace] = {}
        for cls, (positions, arguments) in blocks.items():
            traces.update(zip(positions, cls.block(arguments, spec.horizon_s)))
        vms = []
        for k, (name, vcpus, priority) in enumerate(drawn):
            trace = traces[k]
            if shared is not None:
                trace = CompositeTrace(
                    [
                        (spec.shared_fraction, shared),
                        (1.0 - spec.shared_fraction, trace),
                    ]
                )
            vms.append(
                VM(
                    name=name,
                    vcpus=vcpus,
                    mem_gb=vcpus * spec.mem_gb_per_vcpu,
                    trace=trace,
                    priority=priority,
                )
            )
        return vms


def build_fleet(spec: FleetSpec, seed: int = 0, name_prefix: str = "vm") -> List[VM]:
    """Materialize ``spec.n_vms`` VMs with seeded, reproducible traces.

    With ``shared_fraction`` > 0 every VM's demand becomes a blend of its
    own trace and one cluster-wide signal — this is what makes aggregate
    demand jump abruptly enough to stress wake-up latency.
    """
    rng = np.random.default_rng(seed)
    shared = _make_shared_trace(spec, rng) if spec.shared_fraction > 0 else None
    names = ["{}-{:04d}".format(name_prefix, i) for i in range(spec.n_vms)]
    return _VmDraws(spec).draw(rng, names, shared)
