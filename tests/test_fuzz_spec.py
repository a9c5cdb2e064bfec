"""Tests for the fuzz spec grammar and its canonical JSON codec."""

import json

import pytest

from repro.core import ScenarioSpec
from repro.datacenter.faults import Brownout, FailureBurst
from repro.fuzz.generate import generate_spec
from repro.fuzz.spec import (
    SPEC_VERSION,
    ChurnShape,
    FaultShape,
    FuzzSpec,
    PolicyShape,
    SpecError,
    WorkloadShape,
)
from repro.telemetry.view import StalenessModel


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = FuzzSpec()
        assert FuzzSpec.loads(spec.dumps()) == spec

    def test_generated_specs_round_trip(self):
        # Property over a spread of generated specs: loads(dumps(s)) == s.
        for index in range(25):
            spec = generate_spec(424242, index)
            assert FuzzSpec.loads(spec.dumps()) == spec, "index {}".format(index)

    def test_dumps_is_canonical(self):
        spec = generate_spec(424242, 3)
        text = spec.dumps()
        assert text == FuzzSpec.loads(text).dumps()
        assert text.endswith("\n")
        # Keys sorted at every level.
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert list(data["workload"]) == sorted(data["workload"])

    def test_full_grammar_round_trips(self):
        spec = FuzzSpec(
            seed=99,
            horizon_s=7200.0,
            epoch_s=30.0,
            policy=PolicyShape(preset="S5-PM", headroom=0.25),
            workload=WorkloadShape(n_vms=5, shared_fraction=0.4),
            churn=ChurnShape(rate_per_h=2.0, lifetime_s=1800.0),
            faults=FaultShape(
                wake_failure_rate=0.1,
                permanent_fraction=0.3,
                mttr_h=2.0,
                bursts=(FailureBurst(100.0, 700.0, 0.5),),
                brownouts=(Brownout(0.0, 600.0, 4.0),),
                migration_failure_rate=0.2,
            ),
            telemetry=StalenessModel(delay_s=120.0, dropout_rate=0.1),
        )
        restored = FuzzSpec.loads(spec.dumps())
        assert restored == spec
        assert restored.faults.bursts == spec.faults.bursts


class TestStrictDecoding:
    def test_unknown_key_rejected(self):
        data = FuzzSpec().to_json_dict()
        data["surprise"] = 1
        with pytest.raises(SpecError, match="unknown key"):
            FuzzSpec.from_json_dict(data)

    def test_missing_key_rejected(self):
        data = FuzzSpec().to_json_dict()
        del data["workload"]
        with pytest.raises(SpecError, match="missing key"):
            FuzzSpec.from_json_dict(data)

    def test_nested_unknown_key_rejected(self):
        data = FuzzSpec().to_json_dict()
        data["faults"]["blast_radius"] = 3
        with pytest.raises(SpecError, match="blast_radius"):
            FuzzSpec.from_json_dict(data)

    def test_wrong_version_rejected(self):
        data = FuzzSpec().to_json_dict()
        data["spec_version"] = SPEC_VERSION + 1
        with pytest.raises(SpecError, match="spec_version"):
            FuzzSpec.from_json_dict(data)

    def test_wrong_type_rejected(self):
        data = FuzzSpec().to_json_dict()
        data["seed"] = "seven"
        with pytest.raises(SpecError, match="expected an integer"):
            FuzzSpec.from_json_dict(data)

    def test_bool_is_not_an_integer(self):
        data = FuzzSpec().to_json_dict()
        data["seed"] = True
        with pytest.raises(SpecError, match="expected an integer"):
            FuzzSpec.from_json_dict(data)

    def test_invalid_value_reported_with_location(self):
        data = FuzzSpec().to_json_dict()
        data["cluster"]["n_hosts"] = 0
        with pytest.raises(SpecError, match="spec.cluster"):
            FuzzSpec.from_json_dict(data)

    def test_unparsable_json_rejected(self):
        with pytest.raises(SpecError, match="unparsable"):
            FuzzSpec.loads("{nope")


class TestValidation:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown policy preset"):
            PolicyShape(preset="NotAPolicy")

    def test_burst_window_ordering(self):
        with pytest.raises(ValueError, match="start < end"):
            FailureBurst(start_s=100.0, end_s=100.0, rate=0.5)

    def test_brownout_scale_floor(self):
        with pytest.raises(ValueError, match="scale"):
            Brownout(start_s=0.0, end_s=60.0, scale=0.5)

    def test_fail_fraction_ordering(self):
        with pytest.raises(ValueError, match="fractions"):
            FaultShape(min_fail_fraction=0.8, max_fail_fraction=0.2)

    def test_workload_weight_lengths(self):
        with pytest.raises(ValueError, match="length mismatch"):
            WorkloadShape(vcpu_choices=(1, 2), vcpu_weights=(1.0,))


class TestScenarioBridge:
    def test_scenario_spec_is_traced_and_cacheable(self):
        spec = FuzzSpec(seed=5)
        scenario = spec.scenario_spec()
        assert scenario.kwargs["trace"] is True
        assert scenario.label == spec.label
        assert scenario.digest()  # cacheable: no Uncacheable raised

    def test_digest_is_a_plain_spec_digest(self):
        # A grammar change is a source change, which every key's source
        # digest covers: a fuzz spec's key is that of a plain spec with
        # the same config and kwargs.
        scenario = FuzzSpec(seed=5).scenario_spec()
        plain = ScenarioSpec(scenario.config, kwargs=dict(scenario.kwargs))
        assert plain.digest() == scenario.digest()

    def test_equal_specs_share_a_digest(self):
        a = FuzzSpec(seed=5).scenario_spec()
        b = FuzzSpec(seed=5).scenario_spec()
        assert a.digest() == b.digest()

    def test_replaced_produces_new_value(self):
        spec = FuzzSpec(seed=5)
        other = spec.replaced(horizon_s=3600.0)
        assert other.horizon_s == 3600.0
        assert spec.horizon_s != 3600.0
