"""The run's sample frame: one packed time column, one column per series.

``ClusterSampler.series`` is a :class:`~repro.telemetry.timeseries.SampleFrame`
that the tick fills with one append, and the artifacts, the result cache
and checkpoints carry it as it is.  These tests hold it to its layout (a
pickle holds 8 bytes a sample and a column, plus a fixed overhead, and
only the filled rows), to handing out copies, to resuming from a
checkpoint, to its bounded mode's report, and to the input checks every
series shares.
"""

import math
import pickle

import numpy as np
import pytest

from repro.core import ScenarioSpec, run_scenario, run_scenarios, s3_policy, s5_policy
from repro.core.runner import build_scenario, resume_scenario
from repro.telemetry import ClusterSampler, SampleFrame, TimeSeries

KW = dict(n_hosts=6, n_vms=18, horizon_s=6 * 3600.0, seed=3)
#: An empty twelve-series frame pickles to about 650 bytes.
OVERHEAD_BYTES = 1024


def packed(obj):
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def columns(frame):
    """Every column of ``frame`` as raw float64 bytes, the time column first."""
    first = next(iter(frame))
    return [frame[first].times.tobytes()] + [frame[name].values.tobytes() for name in frame]


class TestLayout:
    def test_artifact_series_pickle_holds_eight_bytes_a_sample(self):
        (art,) = run_scenarios([ScenarioSpec(s3_policy(), kwargs=dict(KW))], workers=1, cache=False)
        ticks = len(art.series["power_w"])
        assert ticks == 360
        width = len(ClusterSampler.SERIES) + 1  # the time column
        assert len(packed(art.series)) <= width * 8 * ticks + OVERHEAD_BYTES

    def test_equal_runs_pickle_equal_frames(self):
        # A pickle holds only the filled rows, not an array's spare room:
        # the cache's and perfbench's warm-versus-cold checks compare these.
        one = run_scenario(s3_policy(), **KW).sampler.series
        two = run_scenario(s3_policy(), **KW).sampler.series
        assert packed(one) == packed(two)
        assert packed(pickle.loads(packed(one))) == packed(one)

    def test_one_frame_append_per_tick(self, monkeypatch):
        calls = []
        append = SampleFrame.append

        def counted(frame, t, values):
            calls.append(len(values))
            append(frame, t, values)

        monkeypatch.setattr(SampleFrame, "append", counted)
        for bounded in (False, True):
            del calls[:]
            result = run_scenario(s3_policy(), bounded_series=bounded, **KW)
            assert calls == [len(ClusterSampler.SERIES)] * result.sampler.samples
            assert len(result.sampler.series["power_w"]) == result.sampler.samples

    def test_frame_is_a_mapping_of_column_views(self):
        frame = SampleFrame(("a", "b"))
        frame.append(0.0, (1.0, 2))
        frame.append(60.0, (3.0, 4))
        assert list(frame) == ["a", "b"] and len(frame) == 2 and frame.rows == 2
        assert frame["b"].points() == [(0.0, 2.0), (60.0, 4.0)]
        assert frame["a"].name == "a"
        with pytest.raises(KeyError):
            frame["c"]

    def test_a_short_or_bad_row_is_refused_whole(self):
        frame = SampleFrame(("a", "b"))
        frame.append(0.0, (1.0, 2.0))
        with pytest.raises(ValueError, match="takes 2 value"):
            frame.append(60.0, (1.0,))
        with pytest.raises(TypeError):
            frame.append(60.0, (1.0, "x"))
        assert frame.rows == 1
        assert [len(frame[name].values) for name in frame] == [1, 1]
        assert len(frame["a"].times) == 1


class TestCopies:
    def test_reading_mid_run_then_ticking_again(self):
        live = build_scenario(s3_policy(), **KW)
        live.env.run(until=3600.0)
        series = live.sampler.series["power_w"]
        times, values = series.times, series.values
        held = memoryview(values)  # a reader that keeps the buffer
        live.env.run(until=7200.0)
        assert len(series) > len(times) == len(values) == len(held)
        assert series.times[: len(times)].tobytes() == times.tobytes()

    def test_a_write_into_a_returned_array_does_not_reach_the_frame(self):
        result = run_scenario(s3_policy(), **KW)
        series = result.sampler.series["demand_cores"]
        before = series.values.tobytes()
        values = series.values
        values[:] = -1.0
        series.times[0] = math.inf
        assert series.values.tobytes() == before
        assert series.times[0] == 0.0


class TestCheckpoint:
    def test_resume_reproduces_the_uninterrupted_columns(self, tmp_path):
        kw = dict(KW, churn_rate_per_h=4.0)
        whole = run_scenario(s3_policy(), **kw)
        ckpt = run_scenario(
            s3_policy(), checkpoint_every_s=5400.0, checkpoint_dir=str(tmp_path), **kw
        )
        path, manifest = ckpt.checkpoints.saved[1]
        assert 0.0 < manifest["sim_time_s"] < KW["horizon_s"]
        resumed = resume_scenario(path)
        assert columns(resumed.sampler.series) == columns(whole.sampler.series)
        assert packed(resumed.sampler.series) == packed(whole.sampler.series)


class TestBounded:
    #: S5-PM, 6 hosts, 32 VMs, 24 h, seed 5, churn 4/h: the series-derived
    #: fields of its bounded report, recorded from the list-backed
    #: ``BoundedTimeSeries`` this frame mode replaced.  The bounded integral
    #: folds left to right, so two of them differ from the full run's.
    PINNED = {
        "mean_active_hosts": 5.367616400277971,
        "mean_demand_cores": 46.098154381787396,
        "mean_power_w": 1429.7302726418961,
        "peak_power_w": 1830.858207595556,
        "violation_time_fraction": 0.027102154273801252,
    }

    def test_bounded_report_is_the_recorded_one(self):
        kw = dict(n_hosts=6, n_vms=32, horizon_s=24 * 3600.0, seed=5, churn_rate_per_h=4.0)
        bounded = run_scenario(s5_policy(), bounded_series=True, **kw).report.to_dict()
        full = run_scenario(s5_policy(), **kw).report.to_dict()
        assert {key: bounded[key] for key in self.PINNED} == self.PINNED
        for key, value in full.items():
            if key not in self.PINNED:
                assert bounded[key] == value, key
        assert bounded["mean_demand_cores"] != full["mean_demand_cores"]

    def test_bounded_column_refuses_sample_reads(self):
        frame = SampleFrame(("x",), bounded=True)
        frame.append(0.0, (2.0,))
        frame.append(60.0, (4.0,))
        series = frame["x"]
        assert (series.mean(), series.max(), series.min()) == (2.0, 4.0, 2.0)
        assert series.integral() == 120.0 and series.last() == (60.0, 4.0)
        assert series.fraction_above(1e-9) == 1.0
        with pytest.raises(ValueError, match="threshold"):
            series.fraction_above(0.5)
        for read in ("times", "values"):
            with pytest.raises(RuntimeError, match="no samples"):
                getattr(series, read)
        for call in (lambda: series.points(), lambda: series.percentile(50),
                     lambda: series.downsample(2)):
            with pytest.raises(RuntimeError, match="no samples"):
                call()


def full_series(name):
    return TimeSeries(name)


def bounded_series(name):
    return SampleFrame((name,), bounded=True)[name]


@pytest.mark.parametrize("make", [full_series, bounded_series], ids=["full", "bounded"])
class TestInputChecks:
    def test_nan_time_refused(self, make):
        series = make("power_w")
        with pytest.raises(ValueError, match="non-monotonic"):
            series.append(math.nan, 1.0)
        series.append(0.0, 1.0)
        with pytest.raises(ValueError, match="non-monotonic"):
            series.append(math.nan, 1.0)
        with pytest.raises(ValueError, match="non-monotonic"):
            series.append(-1.0, 1.0)
        assert len(series) == 1

    def test_mean_of_samples_at_one_instant_names_the_series(self, make):
        series = make("power_w")
        series.append(5.0, 1.0)
        series.append(5.0, 3.0)
        with pytest.raises(ValueError, match="series power_w: 2 samples at one instant"):
            series.mean()
        series.append(65.0, 2.0)
        assert series.mean() == 3.0

    def test_values_are_float64(self, make):
        series = make("hosts")
        series.append(0, 3)
        series.append(np.float64(60.0), np.int64(4))
        assert series.last() == (60.0, 4.0)
        assert series.max() == 4.0 and type(series.max()) is float
