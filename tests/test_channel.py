"""The loss contract of the one delayed, lossy channel, for both senders.

The sampler sends one telemetry snapshot per tick and the neat plane's
local detectors send one report per active host per round.  Each sender
draws loss from its own registered stream, qualified by its send index:
item ``i`` of send ``n`` is lost exactly when
``stream_rng(label, seed, n).random(k)[i] < rate`` for a batch of ``k``
items, and a zero rate draws nothing.
"""

import pytest

import repro.core.plane.observer as observer_module
import repro.telemetry.sampler as sampler_module
from repro.core.plane import LocalDetectors, ManagementLog
from repro.core.seeding import stream_rng
from repro.datacenter import Cluster, VM
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import Channel, ClusterSampler
from repro.workload import FlatTrace

SEEDS = range(12)
SENDS = 20
RATES = (0.1, 0.5, 0.9)
EPOCH_S = 60.0
#: Nothing is delivered while the senders run, so every kept item is
#: still in the channel afterwards.
HOLD_S = 1e9


def build(n_hosts):
    env = Environment()
    return env, Cluster.homogeneous(env, PROTOTYPE_BLADE, n_hosts, cores=16.0, mem_gb=128.0)


def telemetry_kept(seed, rate):
    """Tick indices whose snapshot the sampler's channel kept."""
    env, cluster = build(1)
    channel = Channel(HOLD_S, rate)
    sampler = ClusterSampler(env, cluster, epoch_s=EPOCH_S, telemetry=channel, seed=seed)
    sampler.start()
    env.run(until=SENDS * EPOCH_S - 1.0)
    assert sampler.samples == SENDS
    views = channel.deliver(float("inf"))
    assert len(views) + sampler.telemetry_dropped == SENDS
    return [round(v.taken_at / EPOCH_S) for v in views]


def detector_kept(seed, rate, n_hosts=6):
    """Per round, the host positions whose report the channel kept."""
    env, cluster = build(n_hosts)
    for i, host in enumerate(cluster.hosts):
        cluster.add_vm(VM("vm-{}".format(i), vcpus=2, mem_gb=4, trace=FlatTrace(0.5)), host)
    channel = Channel(HOLD_S, rate)
    detectors = LocalDetectors(cluster, channel, seed)
    log = ManagementLog()
    for n in range(SENDS):
        assert detectors.observe(n * EPOCH_S, log) is None  # cold start
    order = [h.name for h in cluster.active_hosts()]
    kept = [[] for _ in range(SENDS)]
    reports = channel.deliver(float("inf"))
    for report in reports:
        kept[round(report.taken_at / EPOCH_S)].append(order.index(report.host))
    assert log.detector_reports == SENDS * n_hosts
    assert log.detector_reports_dropped == SENDS * n_hosts - len(reports)
    return kept, n_hosts


@pytest.mark.parametrize("rate", RATES)
def test_telemetry_loss_follows_the_telemetry_stream(rate):
    for seed in SEEDS:
        kept = telemetry_kept(seed, rate)
        expected = [
            n for n in range(SENDS)
            if not stream_rng("telemetry", seed, n).random(1)[0] < rate
        ]
        assert kept == expected, (seed, rate)


@pytest.mark.parametrize("rate", RATES)
def test_report_loss_follows_the_plane_stream(rate):
    for seed in SEEDS:
        kept, k = detector_kept(seed, rate)
        for n in range(SENDS):
            draws = stream_rng("plane", seed, n).random(k)
            expected = [i for i in range(k) if not draws[i] < rate]
            assert kept[n] == expected, (seed, rate, n)


def test_zero_rate_draws_nothing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a lossless channel drew from {}".format(args))

    monkeypatch.setattr(sampler_module, "stream_rng", no_draws)
    monkeypatch.setattr(observer_module, "stream_rng", no_draws)
    assert telemetry_kept(seed=3, rate=0.0) == list(range(SENDS))
    kept, k = detector_kept(seed=3, rate=0.0)
    assert kept == [list(range(k))] * SENDS
