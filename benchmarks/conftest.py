"""Shared helpers for the experiment benchmarks.

Every module regenerates one table/figure from DESIGN.md's experiment
index.  The pattern is uniform: compute once under ``benchmark.pedantic``
(rounds=1 — these are simulations, not microbenchmarks), print the
rows/series the paper reports, and assert the qualitative *shape* that the
reproduction must preserve.

Run with::

    PYTHONPATH=src:. python -m pytest benchmarks/ --benchmark-disable -s

``--benchmark-disable`` runs every test once, untimed, as CI does;
``--benchmark-only`` would skip each test without a ``benchmark``
fixture (the pinned F-scale and plane rows among them).  F13
(``test_f13_service_classes.py``) still fails: S5-PM's GOLD violation
reads 0.00126 against its 0.001 bound (ROADMAP item 8).
"""

import pytest

from repro.core import (
    ScenarioSpec,
    always_on,
    hybrid_policy,
    run_scenarios,
    s3_policy,
    s5_policy,
)
from repro.workload import FleetSpec

#: Standard evaluation scenario shared by the policy-comparison benches.
EVAL_HOSTS = 16
EVAL_VMS = 64
EVAL_HORIZON_S = 48 * 3600.0
EVAL_SEED = 2013


def eval_fleet_spec(**overrides):
    """The enterprise mix used across the headline experiments."""
    defaults = dict(
        n_vms=EVAL_VMS,
        horizon_s=EVAL_HORIZON_S,
        shared_fraction=0.3,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def run_policy_comparison(configs=None, fleet_spec=None, workers=None,
                          cache=True, **scenario_kwargs):
    """Run the given policies on the shared scenario; returns name→artifacts.

    Executes through :func:`repro.core.run_scenarios`: the policies fan
    out over a process pool (``REPRO_WORKERS`` controls the width) and
    repeated scenarios — e.g. the ``AlwaysOn`` baseline shared by several
    benchmark modules — are served from the disk result cache instead of
    re-simulated (set ``REPRO_NO_CACHE=1`` to force fresh runs).
    """
    configs = configs or [always_on(), s5_policy(), s3_policy(), hybrid_policy()]
    kwargs = dict(
        n_hosts=EVAL_HOSTS,
        horizon_s=EVAL_HORIZON_S,
        seed=EVAL_SEED,
        fleet_spec=fleet_spec or eval_fleet_spec(),
    )
    kwargs.update(scenario_kwargs)
    specs = [ScenarioSpec(cfg, kwargs=dict(kwargs)) for cfg in configs]
    artifacts = run_scenarios(specs, workers=workers, cache=cache)
    return {spec.name: art for spec, art in zip(specs, artifacts)}


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under timing (simulation-scale bench)."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
