"""Unit tests for workload traces."""

import copy
import pickle

import numpy as np
import pytest

from repro.workload import (
    BurstyTrace,
    CompositeTrace,
    DiurnalTrace,
    FlatTrace,
    NoisyTrace,
    SampledTrace,
    ScaledTrace,
    SpikeTrace,
    StepTrace,
)
from repro.workload.traces import DAY_S, trace_grids


def sample_range(trace, horizon=DAY_S, step=300.0):
    return [trace.at(i * step) for i in range(int(horizon // step))]


class TestFlatTrace:
    def test_constant(self):
        t = FlatTrace(0.3)
        assert t.at(0) == 0.3
        assert t.at(1e6) == 0.3

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            FlatTrace(1.2)
        with pytest.raises(ValueError):
            FlatTrace(-0.1)

    def test_mean_and_peak(self):
        t = FlatTrace(0.4)
        assert t.mean(3600) == pytest.approx(0.4)
        assert t.peak(3600) == pytest.approx(0.4)


class TestStepTrace:
    def test_levels_change_at_breakpoints(self):
        t = StepTrace([(0.0, 0.1), (100.0, 0.9)])
        assert t.at(99.9) == 0.1
        assert t.at(100.0) == 0.9

    def test_implicit_zero_start(self):
        t = StepTrace([(50.0, 0.5)])
        assert t.at(0.0) == 0.0
        assert t.at(60.0) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StepTrace([])

    def test_level_bounds_validated(self):
        with pytest.raises(ValueError):
            StepTrace([(0.0, 1.5)])


class TestDiurnalTrace:
    def test_peak_at_peak_hour(self):
        t = DiurnalTrace(low=0.1, high=0.9, peak_hour=14.0)
        assert t.at(14 * 3600.0) == pytest.approx(0.9)

    def test_trough_opposite_peak(self):
        t = DiurnalTrace(low=0.1, high=0.9, peak_hour=14.0)
        assert t.at(2 * 3600.0) == pytest.approx(0.1)

    def test_bounded(self):
        t = DiurnalTrace(low=0.05, high=0.95)
        for v in sample_range(t):
            assert 0.05 <= v <= 0.95

    def test_periodicity(self):
        t = DiurnalTrace()
        assert t.at(1000.0) == pytest.approx(t.at(1000.0 + DAY_S))

    def test_sharpness_narrows_peak(self):
        gentle = DiurnalTrace(low=0.0, high=1.0, peak_hour=12.0, sharpness=1.0)
        sharp = DiurnalTrace(low=0.0, high=1.0, peak_hour=12.0, sharpness=4.0)
        off_peak = 8 * 3600.0
        assert sharp.at(off_peak) < gentle.at(off_peak)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrace(low=0.8, high=0.2)
        with pytest.raises(ValueError):
            DiurnalTrace(period_s=-1)


class TestSampledTrace:
    def test_step_lookup(self):
        t = SampledTrace([0.1, 0.5, 0.9], step_s=10.0)
        assert t.at(0.0) == 0.1
        assert t.at(15.0) == 0.5
        assert t.at(29.9) == 0.9

    def test_wraps_beyond_horizon(self):
        t = SampledTrace([0.1, 0.5], step_s=10.0)
        assert t.at(20.0) == 0.1
        assert t.at(35.0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledTrace([], step_s=10.0)
        with pytest.raises(ValueError):
            SampledTrace([1.5], step_s=10.0)
        with pytest.raises(ValueError):
            SampledTrace([0.5], step_s=0.0)
        with pytest.raises(ValueError):
            SampledTrace([0.2, float("nan")], step_s=60.0)

    def test_keeps_a_copy_of_the_callers_samples(self):
        # ``np.asarray`` would hold a float64 input itself, so the caller's
        # later write reached the trace, past its [0, 1] check.
        samples = np.array([0.2, 0.4, 0.6])
        t = SampledTrace(samples, step_s=60.0)
        samples[1] = 7.5
        assert t.at(60.0) == 0.4

    @pytest.mark.parametrize("make", [
        lambda: SampledTrace([0.2, 0.4, 0.6], step_s=60.0),
        lambda: BurstyTrace(seed=1, horizon_s=DAY_S),
        lambda: SpikeTrace(seed=2, horizon_s=DAY_S),
        lambda: NoisyTrace(DiurnalTrace(), seed=3, horizon_s=DAY_S),
        lambda: NoisyTrace.block([(FlatTrace(0.5), 4, 0.1)] * 2, DAY_S)[1],
    ], ids=["sampled", "bursty", "spike", "noisy", "block-row"])
    def test_held_samples_are_read_only(self, make):
        # A sweep's specs share one fleet's traces: none may be written.
        t = make()
        before = t.at(0.0)
        with pytest.raises(ValueError, match="read-only"):
            t._samples[0] = 0.99
        assert t.at(0.0) == before

    def test_unpickles_state_with_the_old_list_mirror(self):
        # Checkpoints written before the mirror was dropped pickle each
        # sampled trace with a ``_samples_list`` copy of its grid.
        trace = NoisyTrace(DiurnalTrace(), seed=3, horizon_s=DAY_S)
        old = copy.copy(trace)
        old._samples_list = trace._samples.tolist()
        restored = pickle.loads(pickle.dumps(old))
        assert restored._samples_list == trace._samples.tolist()
        ticks = [i * 37.0 for i in range(-10, 2 * 1440 * 60 // 37)]
        assert [restored.at(t) for t in ticks] == [trace.at(t) for t in ticks]
        assert trace_grids([restored], ticks).tobytes() == trace_grids([trace], ticks).tobytes()


class TestBurstyTrace:
    def test_deterministic_given_seed(self):
        a = BurstyTrace(seed=42)
        b = BurstyTrace(seed=42)
        assert sample_range(a) == sample_range(b)

    def test_different_seeds_differ(self):
        a = BurstyTrace(seed=1)
        b = BurstyTrace(seed=2)
        assert sample_range(a) != sample_range(b)

    def test_values_are_base_or_burst(self):
        t = BurstyTrace(seed=7, base=0.1, burst=0.8)
        for v in sample_range(t, horizon=2 * DAY_S):
            assert v in (pytest.approx(0.1), pytest.approx(0.8))

    def test_bursts_actually_occur(self):
        t = BurstyTrace(seed=3, base=0.1, burst=0.9, mean_gap_s=3600.0)
        values = sample_range(t, horizon=2 * DAY_S, step=60.0)
        assert any(v > 0.5 for v in values)
        assert any(v < 0.5 for v in values)

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            BurstyTrace(seed=0, base=0.9, burst=0.1)


class TestSpikeTrace:
    def test_mostly_base(self):
        t = SpikeTrace(seed=5, base=0.05, spikes_per_day=4.0)
        values = sample_range(t, horizon=2 * DAY_S, step=60.0)
        base_count = sum(1 for v in values if v == pytest.approx(0.05))
        assert base_count > 0.8 * len(values)

    def test_deterministic(self):
        assert sample_range(SpikeTrace(seed=9)) == sample_range(SpikeTrace(seed=9))


class TestNoisyTrace:
    def test_stays_in_bounds(self):
        t = NoisyTrace(FlatTrace(0.5), seed=11, sigma=0.3)
        for v in sample_range(t, horizon=2 * DAY_S):
            assert 0.0 <= v <= 1.0

    def test_tracks_inner_mean(self):
        t = NoisyTrace(FlatTrace(0.5), seed=11, sigma=0.05, horizon_s=DAY_S)
        assert t.mean(DAY_S) == pytest.approx(0.5, abs=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoisyTrace(FlatTrace(0.5), seed=0, sigma=-0.1)


class NanTrace(FlatTrace):
    """A signal that reads NaN: no clip can bring it into [0, 1]."""

    def at(self, t):
        return float("nan")


class TestBlocks:
    """``block`` builds many drawn traces at once, each as its constructor would."""

    HORIZON = 6 * 3600.0

    DRAWS = [
        (NoisyTrace, [(DiurnalTrace(0.1, 0.7, sharpness=s), seed, 0.08)
                      for seed, s in ((1, 1.0), (2, 1.7), (3, 0.6))]
         + [(FlatTrace(0.95), 4, 0.2)]),
        (BurstyTrace, [(seed, 0.1, 0.9, 1800.0, 600.0) for seed in (5, 6, 7)]),
        (SpikeTrace, [(8, 0.05, 1.0, 40.0, 300.0), (9, -0.2, 1.5, 80.0, 120.0)]),
    ]

    @pytest.mark.parametrize("cls,draws", DRAWS, ids=["noisy", "bursty", "spike"])
    def test_block_rows_equal_the_constructor(self, cls, draws):
        block = cls.block(draws, self.HORIZON)
        assert [type(t) for t in block] == [cls] * len(draws)
        for trace, draw in zip(block, draws):
            one = cls(*draw, horizon_s=self.HORIZON)
            assert trace._samples.tobytes() == one._samples.tobytes()
            assert vars(trace).keys() == vars(one).keys()
            assert 0.0 <= trace._samples.min() and trace._samples.max() <= 1.0
            # A view of the block's row pickles as a copy of it would.
            copied = copy.copy(trace)
            copied._samples = trace._samples.copy()
            assert pickle.dumps(trace) == pickle.dumps(copied)
        assert cls.block([], self.HORIZON) == []

    def test_one_nan_row_fails_the_block(self):
        good = [(FlatTrace(0.5), seed, 0.1) for seed in range(3)]
        NoisyTrace.block(good, self.HORIZON)
        for draws in (good + [(NanTrace(0.5), 9, 0.1)], [(NanTrace(0.5), 9, 0.1)] + good):
            with pytest.raises(ValueError, match="within"):
                NoisyTrace.block(draws, self.HORIZON)
        with pytest.raises(ValueError, match="within"):
            NoisyTrace(NanTrace(0.5), seed=9, horizon_s=self.HORIZON)
        with pytest.raises(ValueError, match="within"):
            SpikeTrace.block([(8, 0.05, 1.0, 4.0, 300.0), (9, float("nan"), 1.0, 4.0, 300.0)],
                             self.HORIZON)

    def test_short_horizon_has_no_samples(self):
        for cls, draws in self.DRAWS:
            with pytest.raises(ValueError, match="at least one sample"):
                cls.block(draws, 59.0)


class TestCompositeAndScaled:
    def test_weighted_sum(self):
        t = CompositeTrace([(0.5, FlatTrace(0.4)), (0.5, FlatTrace(0.8))])
        assert t.at(0.0) == pytest.approx(0.6)

    def test_clamped_to_one(self):
        t = CompositeTrace([(1.0, FlatTrace(0.8)), (1.0, FlatTrace(0.8))])
        assert t.at(0.0) == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CompositeTrace([(-0.5, FlatTrace(0.4))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeTrace([])

    def test_scaled(self):
        t = ScaledTrace(FlatTrace(0.4), 0.5)
        assert t.at(0.0) == pytest.approx(0.2)

    def test_scaled_clamps(self):
        t = ScaledTrace(FlatTrace(0.8), 2.0)
        assert t.at(0.0) == 1.0

    def test_scaled_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            ScaledTrace(FlatTrace(0.5), -1.0)
