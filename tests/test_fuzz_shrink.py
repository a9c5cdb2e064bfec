"""Tests for the delta-debugging shrinker (planted oracles — no simulation)."""

import numpy as np
import pytest

from repro.fuzz.generate import generate_spec
from repro.fuzz.shrink import (
    ddmin_evaluation_bound,
    shrink_spec,
)
from repro.datacenter.faults import Brownout, FailureBurst
from repro.fuzz.spec import (
    ChurnShape,
    FaultShape,
    FuzzSpec,
    WorkloadShape,
)
from repro.telemetry.view import StalenessModel

TARGET = "planted"


def planted_oracle(predicate):
    """Wrap a boolean predicate as an outcome-id oracle."""

    def oracle(spec):
        return frozenset([TARGET]) if predicate(spec) else frozenset()

    return oracle


def fat_spec():
    """A deliberately over-specified starting point."""
    return FuzzSpec(
        seed=11,
        horizon_s=6 * 3600.0,
        policy=FuzzSpec().policy,
        workload=WorkloadShape(n_vms=20, shared_fraction=0.5, noise_sigma=0.06),
        churn=ChurnShape(rate_per_h=4.0, lifetime_s=3600.0),
        faults=FaultShape(
            wake_failure_rate=0.2,
            permanent_fraction=0.4,
            mttr_h=2.0,
            bursts=(
                FailureBurst(0.0, 900.0, 0.5),
                FailureBurst(1000.0, 1900.0, 0.6),
                FailureBurst(2000.0, 2900.0, 0.7),
                FailureBurst(3000.0, 3900.0, 0.8),
            ),
            brownouts=(
                Brownout(0.0, 600.0, 3.0),
                Brownout(700.0, 1300.0, 5.0),
            ),
            migration_failure_rate=0.3,
        ),
        telemetry=StalenessModel(delay_s=120.0, dropout_rate=0.2),
    )


class TestConvergence:
    def test_reaches_planted_minimum_within_ddmin_bound(self):
        # Target: at least one burst window AND n_vms >= 2.  Everything
        # else is noise the shrinker must strip.
        spec = fat_spec()
        oracle = planted_oracle(
            lambda s: len(s.faults.bursts) >= 1 and s.workload.n_vms >= 2
        )
        budget = 4 * ddmin_evaluation_bound(spec)
        result = shrink_spec(spec, TARGET, oracle=oracle, max_evaluations=budget)
        assert result.converged
        assert result.evaluations <= budget
        # The planted core survives, minimized.
        assert len(result.spec.faults.bursts) == 1
        assert result.spec.workload.n_vms == 2
        # The noise is gone.
        assert result.spec.faults.brownouts == ()
        assert result.spec.churn == ChurnShape()
        assert result.spec.telemetry == StalenessModel()
        assert result.spec.horizon_s == 1800.0

    def test_result_is_one_minimal(self):
        # Re-shrinking the result must be a no-op: no single remaining
        # move still reproduces.
        oracle = planted_oracle(
            lambda s: len(s.faults.bursts) >= 1 and s.workload.n_vms >= 2
        )
        first = shrink_spec(fat_spec(), TARGET, oracle=oracle)
        second = shrink_spec(first.spec, TARGET, oracle=oracle)
        assert second.reductions == 0
        assert second.spec == first.spec

    def test_ddmin_removes_exactly_the_planted_window(self):
        # Only the *second* burst matters; ddmin must isolate it.
        spec = fat_spec()
        needle = spec.faults.bursts[1]
        oracle = planted_oracle(lambda s: needle in s.faults.bursts)
        result = shrink_spec(spec, TARGET, oracle=oracle)
        assert result.converged
        assert result.spec.faults.bursts == (needle,)

    def test_deterministic_reduction_sequence(self):
        oracle = planted_oracle(lambda s: s.faults.wake_failure_rate > 0)
        a = shrink_spec(fat_spec(), TARGET, oracle=oracle)
        b = shrink_spec(fat_spec(), TARGET, oracle=oracle)
        assert a.steps == b.steps
        assert a.spec == b.spec
        assert a.evaluations == b.evaluations


class TestSeededMutations:
    def test_converges_from_seeded_mutants(self):
        # Fuzz the shrinker itself: mutate generated specs with a seeded
        # RNG and check every session converges within the ddmin bound
        # and preserves the planted core.
        rng = np.random.default_rng(5150)
        for trial in range(6):
            base = generate_spec(5150, trial)
            bursts = tuple(
                FailureBurst(
                    start_s=round(float(rng.uniform(0, 3000)), 1),
                    end_s=round(float(rng.uniform(3100, 7000)), 1),
                    rate=round(float(rng.uniform(0.1, 0.9)), 4),
                )
                for _ in range(int(rng.integers(1, 4)))
            )
            mutated = base.replaced(
                faults=FaultShape(
                    wake_failure_rate=round(float(rng.uniform(0.01, 0.4)), 4),
                    bursts=bursts,
                ),
                churn=ChurnShape(
                    rate_per_h=round(float(rng.uniform(0.1, 8.0)), 4),
                    lifetime_s=3600.0,
                ),
            )
            oracle = planted_oracle(
                lambda s: s.faults.wake_failure_rate > 0 and s.churn.rate_per_h > 0
            )
            budget = 4 * ddmin_evaluation_bound(mutated)
            result = shrink_spec(
                mutated, TARGET, oracle=oracle, max_evaluations=budget
            )
            assert result.converged, "trial {}".format(trial)
            assert result.spec.faults.wake_failure_rate > 0
            assert result.spec.churn.rate_per_h > 0
            assert result.spec.faults.bursts == ()


class TestGuards:
    def test_non_reproducing_spec_rejected(self):
        oracle = planted_oracle(lambda s: False)
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_spec(fat_spec(), TARGET, oracle=oracle)

    def test_budget_exhaustion_reported_not_raised(self):
        oracle = planted_oracle(lambda s: True)
        result = shrink_spec(fat_spec(), TARGET, oracle=oracle, max_evaluations=5)
        assert not result.converged
        assert result.evaluations <= 5

    def test_memoization_never_reevaluates(self):
        calls = []

        def oracle(spec):
            calls.append(spec.dumps())
            return frozenset([TARGET])

        shrink_spec(fat_spec(), TARGET, oracle=oracle, max_evaluations=10_000)
        assert len(calls) == len(set(calls))

    def test_result_serializes(self):
        oracle = planted_oracle(lambda s: s.workload.n_vms >= 2)
        result = shrink_spec(fat_spec(), TARGET, oracle=oracle)
        data = result.to_json_dict()
        assert data["target"] == TARGET
        assert data["converged"] is True
        assert FuzzSpec.from_json_dict(data["spec"]) == result.spec
