"""The paper's contribution: power-aware virtualization management.

A periodic controller consolidates VMs onto the fewest hosts that satisfy
predicted demand plus headroom, parks the surplus hosts in a low-power
state, and wakes them — reactively within one watchdog tick, or
proactively on predicted growth.  Because the park state's exit latency is
seconds (S3) rather than minutes (S5 boot), the controller can run with
aggressive thresholds at negligible performance cost — the paper's thesis.

Entry points:

* :func:`~repro.core.runner.run_scenario` — wire up and run a full
  simulation, returning a :class:`~repro.telemetry.SimReport`.
* :mod:`~repro.core.policies` — the policy presets every experiment
  compares (AlwaysOn/DRM, S5, S3, Hybrid, plus analytic oracle bounds).
"""

from repro.core.cache import ResultCache, Uncacheable, scenario_digest
from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from repro.core.config import ManagerConfig
from repro.core.plane import ManagementLog, PowerAwareManager, WakeArbiter
from repro.core.parallel import (
    ScenarioArtifacts,
    ScenarioSpec,
    branch_scenarios,
    run_scenarios,
    snapshot_result,
)
from repro.core.policies import (
    POLICIES,
    always_on,
    hybrid_policy,
    policy_by_name,
    s3_policy,
    s5_policy,
)
from repro.core.predictor import (
    DemandPredictor,
    EwmaPredictor,
    HistoryPredictor,
    PeakWindowPredictor,
    ReactivePredictor,
    make_predictor,
)
from repro.core.runner import (
    ScenarioResult,
    resume_scenario,
    run_scenario,
)

__all__ = [
    "CheckpointError",
    "DemandPredictor",
    "EwmaPredictor",
    "HistoryPredictor",
    "ManagementLog",
    "ManagerConfig",
    "PeakWindowPredictor",
    "POLICIES",
    "PowerAwareManager",
    "ReactivePredictor",
    "ResultCache",
    "ScenarioArtifacts",
    "ScenarioResult",
    "ScenarioSpec",
    "Uncacheable",
    "WakeArbiter",
    "always_on",
    "branch_scenarios",
    "hybrid_policy",
    "load_checkpoint",
    "make_predictor",
    "policy_by_name",
    "read_manifest",
    "resume_scenario",
    "run_scenario",
    "run_scenarios",
    "s3_policy",
    "s5_policy",
    "save_checkpoint",
    "scenario_digest",
    "snapshot_result",
]
