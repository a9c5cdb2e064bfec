"""Property-based tests for the extension subsystems.

Covers DVFS, service-class delivery, fault injection, episode extraction,
predictors, and the table renderer — the pieces added on top of the core
reproduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import extract_episodes, render_table
from repro.core.predictor import EwmaPredictor, HistoryPredictor, PeakWindowPredictor
from repro.datacenter import Cluster, FaultInjector, FaultModel, Host, Priority, VM
from repro.power import DvfsModel
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TimeSeries
from repro.workload import FlatTrace, PlateauTrace, WeeklyTrace

from .test_telemetry_sampler import tick


# ---------------------------------------------------------------------------
# DVFS
# ---------------------------------------------------------------------------

@given(
    f=st.floats(min_value=0.01, max_value=1.0),
    static=st.floats(min_value=0.0, max_value=1.0),
    exponent=st.floats(min_value=1.0, max_value=3.0),
)
def test_dvfs_power_scale_bounded(f, static, exponent):
    model = DvfsModel(static_fraction=static, exponent=exponent)
    scale = model.power_scale(f)
    assert static - 1e-12 <= scale <= 1.0 + 1e-12


@given(
    load=st.floats(min_value=0.0, max_value=2.0),
    target=st.floats(min_value=0.1, max_value=1.0),
)
def test_dvfs_level_always_satisfies_target_or_is_nominal(load, target):
    model = DvfsModel()
    level = model.level_for(load, target=target)
    assert level in model.levels
    if level < 1.0:
        # A sub-nominal level is only chosen when it meets the target.
        assert load <= target * level + 1e-12
        # And it is the *lowest* sufficient one.
        lower = [l for l in model.levels if l < level]
        if lower:
            assert load > target * max(lower) + -1e-12


# ---------------------------------------------------------------------------
# Service-class delivery
# ---------------------------------------------------------------------------

class_demands = st.lists(
    st.tuples(
        st.sampled_from(list(Priority)),
        st.floats(min_value=0.1, max_value=8.0),  # vcpus (fully demanded)
    ),
    min_size=1,
    max_size=10,
)


@given(specs=class_demands, cores=st.floats(min_value=1.0, max_value=64.0))
@settings(max_examples=60)
def test_class_shortfalls_sum_to_aggregate(specs, cores):
    env = Environment()
    host = Host(env, "h", PROTOTYPE_BLADE, cores=cores, mem_gb=10_000.0)
    cluster = Cluster(env, [host])
    for i, (priority, vcpus) in enumerate(specs):
        cluster.add_vm(
            VM("vm-{}".format(i), vcpus=vcpus, mem_gb=1.0,
               trace=FlatTrace(1.0), priority=priority),
            host,
        )
    aggregate = max(0.0, host.demand_cores(0.0) - cores)
    _, by_class = tick(cluster)
    assert sum(by_class.values()) == pytest.approx(aggregate, abs=1e-9)
    # Strict priority: a higher class can only starve if every lower
    # class is fully starved.
    demand = {p: 0.0 for p in Priority}
    for i, (priority, vcpus) in enumerate(specs):
        demand[priority] += vcpus
    for higher in Priority:
        if by_class[higher] > 1e-9:
            for lower in Priority:
                if lower > higher:
                    assert by_class[lower] == pytest.approx(demand[lower])


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

@given(
    rate=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40)
def test_fault_injector_rate_statistics(rate, seed):
    injector = FaultInjector(
        FaultModel(wake_failure_rate=rate), seed=seed, host_name="host"
    )
    draws = [injector.draw_wake_failure() for _ in range(300)]
    observed = sum(draws) / len(draws)
    # 300 Bernoulli draws: allow a wide statistical band.
    assert abs(observed - rate) < 0.15


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fault_injector_reproducible(seed):
    model = FaultModel(wake_failure_rate=0.5, permanent_fraction=0.3)
    a = FaultInjector(model, seed=seed, host_name="x")
    b = FaultInjector(model, seed=seed, host_name="x")
    for _ in range(20):
        assert a.draw_wake_failure() == b.draw_wake_failure()
        assert a.draw_permanent() == b.draw_permanent()


# ---------------------------------------------------------------------------
# Episode extraction
# ---------------------------------------------------------------------------

shortfall_series = st.lists(
    st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=60
)


@given(values=shortfall_series)
def test_episodes_are_disjoint_and_ordered(values):
    ts = TimeSeries("shortfall_cores")
    for i, v in enumerate(values):
        ts.append(i * 60.0, v)
    episodes = extract_episodes(ts)
    for ep in episodes:
        assert ep.duration_s >= 0.0
        assert ep.peak_cores >= 0.0
        assert ep.deficit_core_s >= 0.0
    for a, b in zip(episodes, episodes[1:]):
        assert a.start_s + a.duration_s <= b.start_s


@given(values=shortfall_series)
def test_episode_deficit_sums_to_series_integral(values):
    ts = TimeSeries("shortfall_cores")
    for i, v in enumerate(values):
        ts.append(i * 60.0, v)
    episodes = extract_episodes(ts)
    total = sum(ep.deficit_core_s for ep in episodes)
    assert total == pytest.approx(ts.integral(), abs=1e-6)


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------

observations = st.lists(
    st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50
)


@given(obs=observations)
def test_history_predictor_never_below_last(obs):
    p = HistoryPredictor(slots=24)
    for i, demand in enumerate(obs):
        p.observe(i * 1800.0, demand)
    assert p.predict() >= obs[-1] - 1e-9


@given(obs=observations, alpha=st.floats(min_value=0.05, max_value=1.0))
def test_ewma_prediction_non_negative_and_finite(obs, alpha):
    p = EwmaPredictor(alpha=alpha)
    for i, demand in enumerate(obs):
        p.observe(i * 60.0, demand)
    prediction = p.predict()
    assert prediction >= 0.0
    assert np.isfinite(prediction)


@given(obs=observations)
def test_peak_predictor_bounded_by_window_max(obs):
    p = PeakWindowPredictor(window_s=1e12)  # effectively unbounded window
    for i, demand in enumerate(obs):
        p.observe(i * 60.0, demand)
    assert p.predict() == pytest.approx(max(obs))


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@given(
    low=st.floats(min_value=0.0, max_value=0.4),
    span=st.floats(min_value=0.0, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=14 * 86_400.0),
)
def test_plateau_trace_bounded(low, span, t):
    trace = PlateauTrace(low=low, high=low + span, ramp_s=1800.0)
    assert low - 1e-9 <= trace.at(t) <= low + span + 1e-9


@given(
    factor=st.floats(min_value=0.0, max_value=1.0),
    level=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=21 * 86_400.0),
)
def test_weekly_trace_bounded(factor, level, t):
    trace = WeeklyTrace(FlatTrace(level), weekend_factor=factor)
    assert 0.0 <= trace.at(t) <= 1.0


# ---------------------------------------------------------------------------
# Table renderer
# ---------------------------------------------------------------------------

@given(
    rows=st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
                min_size=0,
                max_size=12,
            ),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=0,
        max_size=12,
    )
)
def test_render_table_lines_equal_width(rows):
    text = render_table(["name", "value"], [[a, b] for a, b in rows])
    lines = text.splitlines()
    # Header + separator + one line per row.
    assert len(lines) == 2 + len(rows)
    assert len(set(len(line.rstrip()) for line in lines[:2])) >= 1
