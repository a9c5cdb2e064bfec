"""Delta-debugging shrinker over the fuzz spec grammar.

Given a spec whose run produces some outcome id (an invariant violation,
a behavior, or a run error — see :mod:`repro.fuzz.oracle`), the shrinker
minimizes the spec while the id keeps reproducing:

* **list-by-list** — classic ddmin (Zeller/Hildebrandt) over every tuple
  field of the grammar (chaos bursts, brownouts): remove chunks at
  doubling granularity, keep any reduction that still trips the oracle;
* **subsystem-by-subsystem** — try replacing whole sub-shapes (churn,
  faults, telemetry, the shared-demand signal) with their inert
  defaults;
* **field-by-field** — for every scalar, walk a deterministic candidate
  ladder toward the field's simplest legal value (zero / minimum /
  repeated halving of the gap), accepting the simplest candidate that
  still reproduces.

Passes repeat until a fixpoint: the result is 1-minimal with respect to
the move set — no single remaining move reproduces the outcome.  Every
candidate evaluation is memoized on the spec's canonical JSON, and the
total number of *distinct* oracle evaluations is bounded by
``max_evaluations`` (the ddmin bound tests assert convergence well under
it).  The shrinker itself draws no randomness: given the same spec,
oracle, and target id, the reduction sequence is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.cache import ResultCache
from repro.fuzz.oracle import run_spec
from repro.fuzz.spec import ChurnShape, FaultShape, FuzzSpec
from repro.telemetry.view import StalenessModel

#: An oracle maps a candidate spec to the outcome ids its run produces.
Oracle = Callable[[FuzzSpec], FrozenSet[str]]

#: Default cap on distinct oracle evaluations per shrink session.
DEFAULT_MAX_EVALUATIONS = 256

#: Scalar fields the field-by-field pass minimizes:
#: (path, kind, floor).  Ints shrink toward the floor by halving the
#: gap; floats additionally try 0.0 (or the floor) first.
_SCALAR_FIELDS: Tuple[Tuple[Tuple[str, ...], str, float], ...] = (
    (("cluster", "n_hosts"), "int", 1),
    (("workload", "n_vms"), "int", 1),
    (("horizon_s",), "float", 1800.0),
    (("workload", "shared_fraction"), "float", 0.0),
    (("workload", "noise_sigma"), "float", 0.0),
    (("churn", "rate_per_h"), "float", 0.0),
    (("faults", "wake_failure_rate"), "float", 0.0),
    (("faults", "permanent_fraction"), "float", 0.0),
    (("faults", "mttr_h"), "float", 0.0),
    (("faults", "migration_failure_rate"), "float", 0.0),
    (("telemetry", "delay_s"), "float", 0.0),
    (("telemetry", "dropout_rate"), "float", 0.0),
    (("policy", "park_delay_rounds"), "int", 0),
    (("policy", "max_parks_per_round"), "int", 1),
)

#: Whole-subsystem simplifications tried before scalar minimization:
#: (path, replacement factory).
_SUBSYSTEM_RESETS: Tuple[Tuple[Tuple[str, ...], Callable[[], Any]], ...] = (
    (("churn",), ChurnShape),
    (("telemetry",), StalenessModel),
    (("faults",), FaultShape),
)


class ShrinkBudgetExhausted(RuntimeError):
    """The oracle evaluation budget ran out before reaching a fixpoint."""


@dataclass
class ShrinkResult:
    """Outcome of one shrink session."""

    spec: FuzzSpec
    target: str
    evaluations: int
    reductions: int
    converged: bool
    #: Human-readable reduction journal ("removed faults.bursts[1]", ...).
    steps: List[str] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "evaluations": self.evaluations,
            "reductions": self.reductions,
            "converged": self.converged,
            "steps": list(self.steps),
            "spec": self.spec.to_json_dict(),
        }


def _get_path(spec: FuzzSpec, path: Tuple[str, ...]) -> Any:
    value: Any = spec
    for name in path:
        value = getattr(value, name)
    return value


def _set_path(spec: FuzzSpec, path: Tuple[str, ...], value: Any) -> FuzzSpec:
    """A copy of ``spec`` with the (possibly nested) field replaced."""
    if len(path) == 1:
        return replace(spec, **{path[0]: value})
    inner = replace(getattr(spec, path[0]), **{path[1]: value})
    return replace(spec, **{path[0]: inner})


def _scalar_candidates(kind: str, current: Any, floor: float) -> List[Any]:
    """The candidate ladder for one scalar, simplest first."""
    candidates: List[Any] = []
    if kind == "int":
        lo, cur = int(floor), int(current)
        if cur <= lo:
            return []
        candidates.append(lo)
        gap = cur - lo
        while gap > 1:
            gap //= 2
            value = lo + gap
            if value not in candidates and value != cur:
                candidates.append(value)
    else:
        lo, cur = float(floor), float(current)
        if cur <= lo:
            return []
        candidates.append(lo)
        gap = cur - lo
        for _ in range(4):
            gap /= 2.0
            value = round(lo + gap, 6)
            if value not in candidates and value != cur:
                candidates.append(value)
    return candidates


class _Session:
    """One shrink run: memoized oracle + budget accounting."""

    def __init__(self, oracle: Oracle, target: str, max_evaluations: int) -> None:
        self._oracle = oracle
        self._target = target
        self._memo: Dict[str, bool] = {}
        self.evaluations = 0
        self.max_evaluations = max_evaluations

    def trips(self, spec: FuzzSpec) -> bool:
        key = spec.dumps()
        if key in self._memo:
            return self._memo[key]
        if self.evaluations >= self.max_evaluations:
            raise ShrinkBudgetExhausted(
                "shrink exceeded {} oracle evaluations".format(self.max_evaluations)
            )
        self.evaluations += 1
        result = self._target in self._oracle(spec)
        self._memo[key] = result
        return result


def _ddmin_tuple(
    session: _Session,
    spec: FuzzSpec,
    path: Tuple[str, ...],
    steps: List[str],
) -> Tuple[FuzzSpec, int]:
    """Classic ddmin over one tuple field; returns (spec, reductions)."""
    items: Tuple[Any, ...] = _get_path(spec, path)
    reductions = 0
    dotted = ".".join(path)
    # Fast path: the whole list may be unnecessary.
    if items:
        candidate = _set_path(spec, path, ())
        if session.trips(candidate):
            steps.append("cleared {} ({} item(s))".format(dotted, len(items)))
            return candidate, 1
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            remainder = items[:start] + items[start + chunk:]
            if not remainder:
                continue
            candidate = _set_path(spec, path, remainder)
            if session.trips(candidate):
                steps.append(
                    "removed {}[{}:{}]".format(dotted, start, start + chunk)
                )
                spec, items = candidate, remainder
                reductions += 1
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if chunk <= 1:
                break
            n = min(len(items), n * 2)
    # Single remaining item: try dropping it outright.
    if len(items) == 1:
        candidate = _set_path(spec, path, ())
        if session.trips(candidate):
            steps.append("cleared {} (last item)".format(dotted))
            spec = candidate
            reductions += 1
    return spec, reductions


def _try_candidate(
    session: _Session,
    spec: FuzzSpec,
    path: Tuple[str, ...],
    value: Any,
) -> Optional[FuzzSpec]:
    """Build and test one candidate; None when illegal or non-reproducing."""
    try:
        candidate = _set_path(spec, path, value)
    except ValueError:
        return None
    if candidate == spec:
        return None
    return candidate if session.trips(candidate) else None


def shrink_spec(
    spec: FuzzSpec,
    target: str,
    oracle: Optional[Oracle] = None,
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
    cache: Any = True,
) -> ShrinkResult:
    """Minimize ``spec`` while its run keeps producing ``target``.

    Args:
        spec: the reproducing spec to minimize.
        target: the outcome id that must keep reproducing — an invariant
            family id (``"residency"``), a behavior (``"extra:..."``), or
            a run-error id (``"error:RuntimeError"``).
        oracle: outcome-id function; defaults to the real runner
            (:func:`repro.fuzz.oracle.run_spec` with ``cache``).
        max_evaluations: hard cap on distinct oracle evaluations.
        cache: result-cache setting for the default oracle (True uses the
            shared disk cache; pass a :class:`ResultCache` to relocate).

    Raises:
        ValueError: the starting spec does not reproduce ``target``.
    """
    if oracle is None:
        store = cache if isinstance(cache, (bool, ResultCache)) else True

        def oracle(candidate: FuzzSpec) -> FrozenSet[str]:
            return run_spec(candidate, cache=store).outcome_ids()

    session = _Session(oracle, target, max_evaluations)
    if not session.trips(spec):
        raise ValueError(
            "spec does not reproduce outcome {!r}; nothing to shrink".format(target)
        )

    steps: List[str] = []
    total_reductions = 0
    converged = True
    try:
        changed = True
        while changed:
            changed = False
            # 1. list-by-list: ddmin over every tuple field.
            for path in ((("faults", "bursts")), (("faults", "brownouts"))):
                spec, reductions = _ddmin_tuple(session, spec, path, steps)
                if reductions:
                    total_reductions += reductions
                    changed = True
            # 2. subsystem-by-subsystem: inert defaults.
            for path, factory in _SUBSYSTEM_RESETS:
                default = factory()
                if _get_path(spec, path) == default:
                    continue
                candidate = _try_candidate(session, spec, path, default)
                if candidate is not None:
                    steps.append("reset {} to defaults".format(".".join(path)))
                    spec = candidate
                    total_reductions += 1
                    changed = True
            # 3. field-by-field: scalar candidate ladders.
            for path, kind, floor in _SCALAR_FIELDS:
                current = _get_path(spec, path)
                for value in _scalar_candidates(kind, current, floor):
                    candidate = _try_candidate(session, spec, path, value)
                    if candidate is not None:
                        steps.append(
                            "lowered {} {} -> {}".format(
                                ".".join(path), current, value
                            )
                        )
                        spec = candidate
                        total_reductions += 1
                        changed = True
                        break
    except ShrinkBudgetExhausted:
        converged = False

    return ShrinkResult(
        spec=spec,
        target=target,
        evaluations=session.evaluations,
        reductions=total_reductions,
        converged=converged,
        steps=steps,
    )


def ddmin_evaluation_bound(spec: FuzzSpec) -> int:
    """Worst-case distinct-evaluation bound for one full pass over ``spec``.

    Classic ddmin over a list of *n* items is O(n² + 3n) tests; the
    scalar ladders contribute at most ``len(candidates)`` each (≤ 6) and
    subsystem resets one each.  The convergence tests assert sessions
    stay within a small multiple of this (passes repeat only while they
    keep reducing).
    """
    bound = 0
    for path in ((("faults", "bursts")), (("faults", "brownouts"))):
        n = len(_get_path(spec, path))
        bound += n * n + 3 * n + 2
    bound += len(_SUBSYSTEM_RESETS)
    bound += 6 * len(_SCALAR_FIELDS)
    return bound
