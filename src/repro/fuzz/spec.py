"""The fuzz spec grammar: a compact, versioned scenario description.

A :class:`FuzzSpec` composes every axis the simulator exposes — workload
shape, VM churn, fleet heterogeneity, priority mixes, fault/chaos
schedules, migration faults, telemetry staleness, policy knobs — into one
frozen, picklable value with a canonical JSON encoding.  The grammar is
the shared language of the whole fuzzing subsystem:

* the seeded generator (:mod:`repro.fuzz.generate`) draws specs from it,
* the campaign runner materializes each spec into a
  :class:`~repro.core.ScenarioSpec` via :meth:`FuzzSpec.scenario_spec`
  and runs it through the existing process pool + result cache,
* the delta-debugging shrinker (:mod:`repro.fuzz.shrink`) minimizes a
  violating spec field-by-field and list-by-list over this grammar,
* the regression corpus (``tests/corpus/*.json``) stores shrunk specs in
  the canonical JSON form, replayed by tier-1 forever.

Where a simulator model is already a flat frozen dataclass of scalars,
the grammar holds it as is: chaos windows are
:class:`~repro.datacenter.faults.FailureBurst` and
:class:`~repro.datacenter.faults.Brownout` values, and the telemetry axis
is a :class:`~repro.telemetry.view.StalenessModel`, so their validation
has one definition.  The shapes flatten the models that nest
(:class:`FaultShape` over :class:`~repro.datacenter.faults.FaultModel`)
or take mappings (:class:`WorkloadShape` over
:class:`~repro.workload.fleet.FleetSpec`), so the shrinker can walk every
scalar by path.

Round-trip contract: ``loads(dumps(spec)) == spec`` for every valid
spec, and ``dumps`` output is canonical (sorted keys, fixed indentation)
so corpus diffs stay reviewable.  ``SPEC_VERSION`` is bumped on any
grammar change that alters the meaning of an encoded spec; decoding a
spec with a different version is an error, not a guess.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Dict, Optional, Tuple, Type, TypeVar, get_type_hints

from repro.core.config import ManagerConfig
from repro.core.parallel import ScenarioSpec
from repro.core.policies import POLICIES, policy_by_name
from repro.datacenter.faults import (
    Brownout,
    ChaosSchedule,
    FailureBurst,
    FaultModel,
    MigrationFaultModel,
    RepairModel,
)
from repro.fold import left_sum
from repro.telemetry.view import StalenessModel
from repro.workload.fleet import FleetSpec

#: Grammar version; bumped whenever the JSON encoding changes meaning.
#: 2: PolicyShape gained the management-plane axis (``plane``).
SPEC_VERSION = 2

_T = TypeVar("_T")


class SpecError(ValueError):
    """A spec document failed to decode (wrong version, shape, or value)."""


# ----------------------------------------------------------------------
# Canonical JSON codec (shared by every shape dataclass)
# ----------------------------------------------------------------------


def _encode_value(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _encode_value(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, tuple):
        return [_encode_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecError(
        "value {!r} ({}) has no spec encoding".format(value, type(value).__name__)
    )


def _decode_value(hint: Any, value: Any, where: str) -> Any:
    origin = getattr(hint, "__origin__", None)
    if origin is tuple:
        if not isinstance(value, list):
            raise SpecError("{}: expected a list, got {!r}".format(where, value))
        item_hint = hint.__args__[0]
        return tuple(
            _decode_value(item_hint, item, "{}[{}]".format(where, i))
            for i, item in enumerate(value)
        )
    if is_dataclass(hint):
        return _decode_dataclass(hint, value, where)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError("{}: expected a number, got {!r}".format(where, value))
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError("{}: expected an integer, got {!r}".format(where, value))
        return value
    if hint is str:
        if not isinstance(value, str):
            raise SpecError("{}: expected a string, got {!r}".format(where, value))
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise SpecError("{}: expected a boolean, got {!r}".format(where, value))
        return value
    raise SpecError("{}: unsupported field type {!r}".format(where, hint))


def _decode_dataclass(cls: Type[_T], data: Any, where: str) -> _T:
    if not isinstance(data, dict):
        raise SpecError("{}: expected an object, got {!r}".format(where, data))
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
    unknown = set(data) - known
    if unknown:
        raise SpecError(
            "{}: unknown key(s) {}".format(where, ", ".join(sorted(unknown)))
        )
    missing = known - set(data)
    if missing:
        raise SpecError(
            "{}: missing key(s) {}".format(where, ", ".join(sorted(missing)))
        )
    kwargs = {
        name: _decode_value(hints[name], data[name], "{}.{}".format(where, name))
        for name in sorted(known)
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SpecError("{}: {}".format(where, exc)) from exc


# ----------------------------------------------------------------------
# The grammar
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyShape:
    """Management policy: a preset plus the fuzzed aggressiveness knobs."""

    preset: str = "S3-PM"
    headroom: float = 0.10
    park_delay_rounds: int = 1
    max_parks_per_round: int = 2
    plane: str = "centralized"

    def __post_init__(self) -> None:
        if self.preset not in POLICIES:
            raise ValueError(
                "unknown policy preset {!r} (choose from {})".format(
                    self.preset, ", ".join(sorted(POLICIES))
                )
            )
        if self.headroom < 0:
            raise ValueError("headroom must be >= 0")
        if self.park_delay_rounds < 0:
            raise ValueError("park_delay_rounds must be >= 0")
        if self.max_parks_per_round < 1:
            raise ValueError("max_parks_per_round must be >= 1")
        if self.plane not in ("centralized", "neat"):
            raise ValueError("plane must be 'centralized' or 'neat'")

    def manager_config(self) -> ManagerConfig:
        return policy_by_name(self.preset).with_overrides(
            headroom=self.headroom,
            park_delay_rounds=self.park_delay_rounds,
            max_parks_per_round=self.max_parks_per_round,
            plane=self.plane,
        )


@dataclass(frozen=True)
class ClusterShape:
    """Homogeneous host inventory."""

    n_hosts: int = 4
    host_cores: float = 16.0
    host_mem_gb: float = 128.0

    def __post_init__(self) -> None:
        if self.n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        if self.host_cores <= 0 or self.host_mem_gb <= 0:
            raise ValueError("host capacity must be positive")


@dataclass(frozen=True)
class WorkloadShape:
    """VM fleet heterogeneity: sizes, demand archetypes, priority mix."""

    n_vms: int = 8
    vcpu_choices: Tuple[int, ...] = (1, 2, 4, 8)
    vcpu_weights: Tuple[float, ...] = (0.35, 0.35, 0.2, 0.1)
    mem_gb_per_vcpu: float = 4.0
    diurnal_weight: float = 0.55
    bursty_weight: float = 0.2
    flat_weight: float = 0.15
    spiky_weight: float = 0.1
    shared_fraction: float = 0.0
    shared_kind: str = "bursty"
    gold_weight: float = 0.2
    silver_weight: float = 0.3
    bronze_weight: float = 0.5
    noise_sigma: float = 0.04

    def __post_init__(self) -> None:
        if self.n_vms < 1:
            raise ValueError("n_vms must be >= 1")
        if not self.vcpu_choices or len(self.vcpu_choices) != len(self.vcpu_weights):
            raise ValueError("vcpu choices/weights length mismatch")
        if any(c < 1 for c in self.vcpu_choices):
            raise ValueError("vcpu choices must be >= 1")
        if any(w < 0 for w in self.vcpu_weights) or left_sum(self.vcpu_weights) <= 0:
            raise ValueError("vcpu weights must be >= 0 and sum to > 0")
        if self.mem_gb_per_vcpu <= 0:
            raise ValueError("mem_gb_per_vcpu must be positive")
        archetypes = (
            self.diurnal_weight, self.bursty_weight,
            self.flat_weight, self.spiky_weight,
        )
        if any(w < 0 for w in archetypes) or left_sum(archetypes) <= 0:
            raise ValueError("archetype weights must be >= 0 and sum to > 0")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        if self.shared_kind not in ("bursty", "diurnal"):
            raise ValueError("shared_kind must be 'bursty' or 'diurnal'")
        priorities = (self.gold_weight, self.silver_weight, self.bronze_weight)
        if any(w < 0 for w in priorities) or left_sum(priorities) <= 0:
            raise ValueError("priority weights must be >= 0 and sum to > 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    def fleet_spec(self, horizon_s: float) -> FleetSpec:
        return FleetSpec(
            n_vms=self.n_vms,
            vcpu_choices=tuple(self.vcpu_choices),
            vcpu_weights=tuple(self.vcpu_weights),
            mem_gb_per_vcpu=self.mem_gb_per_vcpu,
            archetype_weights={
                "diurnal": self.diurnal_weight,
                "bursty": self.bursty_weight,
                "flat": self.flat_weight,
                "spiky": self.spiky_weight,
            },
            horizon_s=min(horizon_s, 7 * 86_400.0),
            noise_sigma=self.noise_sigma,
            shared_fraction=self.shared_fraction,
            shared_kind=self.shared_kind,
            priority_weights={
                "gold": self.gold_weight,
                "silver": self.silver_weight,
                "bronze": self.bronze_weight,
            },
        )


@dataclass(frozen=True)
class ChurnShape:
    """VM arrival/departure churn (rate 0 disables the generator)."""

    rate_per_h: float = 0.0
    lifetime_s: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.rate_per_h < 0:
            raise ValueError("rate_per_h must be >= 0")
        if self.lifetime_s <= 0:
            raise ValueError("lifetime_s must be positive")


@dataclass(frozen=True)
class FaultShape:
    """Wake faults, repair, chaos schedule, and migration faults."""

    wake_failure_rate: float = 0.0
    permanent_fraction: float = 0.0
    mttr_h: float = 0.0
    bursts: Tuple[FailureBurst, ...] = ()
    brownouts: Tuple[Brownout, ...] = ()
    migration_failure_rate: float = 0.0
    min_fail_fraction: float = 0.1
    max_fail_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.wake_failure_rate < 1.0:
            raise ValueError("wake_failure_rate must be in [0, 1)")
        if not 0.0 <= self.permanent_fraction <= 1.0:
            raise ValueError("permanent_fraction must be in [0, 1]")
        if self.mttr_h < 0:
            raise ValueError("mttr_h must be >= 0")
        if not 0.0 <= self.migration_failure_rate < 1.0:
            raise ValueError("migration_failure_rate must be in [0, 1)")
        if not 0.0 < self.min_fail_fraction <= self.max_fail_fraction < 1.0:
            raise ValueError(
                "fail fractions must satisfy 0 < min <= max < 1"
            )

    @property
    def enabled(self) -> bool:
        return bool(
            self.wake_failure_rate > 0
            or self.bursts
            or self.brownouts
            or self.migration_failure_rate > 0
        )

    def fault_model(self) -> Optional[FaultModel]:
        if not self.enabled:
            return None
        chaos = None
        if self.bursts or self.brownouts:
            chaos = ChaosSchedule(bursts=self.bursts, brownouts=self.brownouts)
        migration = None
        if self.migration_failure_rate > 0:
            migration = MigrationFaultModel(
                failure_rate=self.migration_failure_rate,
                min_fail_fraction=self.min_fail_fraction,
                max_fail_fraction=self.max_fail_fraction,
            )
        repair = RepairModel(mttr_s=self.mttr_h * 3600.0) if self.mttr_h > 0 else None
        return FaultModel(
            wake_failure_rate=self.wake_failure_rate,
            permanent_fraction=self.permanent_fraction,
            repair=repair,
            chaos=chaos,
            migration=migration,
        )


@dataclass(frozen=True)
class FuzzSpec:
    """One complete generated scenario, as data.

    ``seed`` drives every RNG stream of the materialized scenario (fleet
    generation, churn, fault draws, telemetry dropout); the spec plus the
    package version fully determine the simulated outcome.
    """

    seed: int = 0
    horizon_s: float = 4 * 3600.0
    epoch_s: float = 60.0
    policy: PolicyShape = PolicyShape()
    cluster: ClusterShape = ClusterShape()
    workload: WorkloadShape = WorkloadShape()
    churn: ChurnShape = ChurnShape()
    faults: FaultShape = FaultShape()
    telemetry: StalenessModel = StalenessModel()
    spec_version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if self.spec_version != SPEC_VERSION:
            raise ValueError(
                "spec_version {} is not the supported {}".format(
                    self.spec_version, SPEC_VERSION
                )
            )

    # ------------------------------------------------------------------
    # Canonical JSON round-trip
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            f.name: _encode_value(getattr(self, f.name)) for f in fields(self)
        }

    @classmethod
    def from_json_dict(cls, data: Any) -> "FuzzSpec":
        if isinstance(data, dict):
            version = data.get("spec_version")
            if version != SPEC_VERSION:
                raise SpecError(
                    "spec_version {!r} is not the supported {} (re-generate "
                    "the spec with this package version)".format(
                        version, SPEC_VERSION
                    )
                )
        return _decode_dataclass(cls, data, "spec")

    def dumps(self) -> str:
        """Canonical JSON text (sorted keys, 2-space indent, newline)."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "FuzzSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("unparsable spec JSON: {}".format(exc)) from exc
        return cls.from_json_dict(data)

    def replaced(self, **kwargs: Any) -> "FuzzSpec":
        """A copy with selected top-level fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # The spec -> scenario bridge
    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        return "fuzz-{:08x}-{}".format(self.seed, self.policy.preset)

    def scenario_kwargs(self) -> Dict[str, Any]:
        """The ``run_scenario`` keyword arguments this spec describes."""
        kwargs: Dict[str, Any] = dict(
            n_hosts=self.cluster.n_hosts,
            host_cores=self.cluster.host_cores,
            host_mem_gb=self.cluster.host_mem_gb,
            horizon_s=self.horizon_s,
            seed=self.seed,
            epoch_s=self.epoch_s,
            fleet_spec=self.workload.fleet_spec(self.horizon_s),
            churn_rate_per_h=self.churn.rate_per_h,
            churn_lifetime_s=self.churn.lifetime_s,
            trace=True,
        )
        fault_model = self.faults.fault_model()
        if fault_model is not None:
            kwargs["fault_model"] = fault_model
        if self.telemetry.delay_s > 0 or self.telemetry.dropout_rate > 0:
            kwargs["telemetry_model"] = self.telemetry
        return kwargs

    def scenario_spec(self) -> ScenarioSpec:
        """Materialize into a traced, cacheable :class:`ScenarioSpec`.

        The spec grammar version is folded into the cache digest
        (``digest_extra``) so cached fuzz artifacts are invalidated
        whenever the grammar semantics change.
        """
        return ScenarioSpec(
            self.policy.manager_config(),
            kwargs=self.scenario_kwargs(),
            label=self.label,
            digest_extra={"fuzz_spec_version": self.spec_version},
        )
