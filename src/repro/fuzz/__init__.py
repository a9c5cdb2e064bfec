"""Grammar-driven scenario fuzzing: generate, certify, shrink.

The fuzzing campaign closes the loop the ROADMAP calls "adversarial
coverage": a versioned spec grammar (:mod:`repro.fuzz.spec`) composes
every simulator feature — workload shapes, churn, heterogeneous fleets,
priority mixes, fault/chaos schedules, migration faults, telemetry
staleness — into one picklable :class:`FuzzSpec`; a seeded generator
(:mod:`repro.fuzz.generate`) draws specs through the registered
``fuzz`` RNG stream; every run is trace-certified by the validation
oracle (:mod:`repro.fuzz.oracle`); and violating specs are minimized by
a delta-debugging shrinker (:mod:`repro.fuzz.shrink`) into the
checked-in reproducer corpus under ``tests/corpus/``.
"""

from repro.fuzz.campaign import CampaignSummary, run_campaign
from repro.fuzz.generate import generate_campaign, generate_spec
from repro.fuzz.oracle import SpecOutcome, classify_artifacts, run_spec
from repro.fuzz.shrink import ShrinkResult, shrink_spec
from repro.fuzz.spec import (
    SPEC_VERSION,
    ChurnShape,
    ClusterShape,
    FaultShape,
    FuzzSpec,
    PolicyShape,
    SpecError,
    WorkloadShape,
)

__all__ = [
    "SPEC_VERSION",
    "CampaignSummary",
    "ChurnShape",
    "ClusterShape",
    "FaultShape",
    "FuzzSpec",
    "PolicyShape",
    "ShrinkResult",
    "SpecError",
    "SpecOutcome",
    "WorkloadShape",
    "classify_artifacts",
    "generate_campaign",
    "generate_spec",
    "run_campaign",
    "run_spec",
    "shrink_spec",
]
