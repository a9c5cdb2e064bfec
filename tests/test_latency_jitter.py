"""Tests for per-transition latency jitter."""

import numpy as np
import pytest

import repro.core.seeding as seeding
from repro.core.seeding import stream_rng
from repro.datacenter import Host
from repro.power import HostPowerStateMachine, PowerState, TransitionSpec
from repro.prototype import make_prototype_blade_profile
from repro.sim import Environment
from repro.telemetry.trace import TraceBuffer
from repro.trace_events import TransitionStart


class TestTransitionSpecJitter:
    def test_default_no_jitter(self):
        spec = TransitionSpec(latency_s=10.0, power_w=100.0)
        assert spec.sample_latency_s(np.random.default_rng(0)) == 10.0

    def test_no_rng_means_nominal(self):
        spec = TransitionSpec(latency_s=10.0, power_w=100.0, jitter_s=5.0)
        assert spec.sample_latency_s(None) == 10.0

    def test_samples_within_bounds(self):
        spec = TransitionSpec(latency_s=10.0, power_w=100.0, jitter_s=4.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            latency = spec.sample_latency_s(rng)
            assert 6.0 <= latency <= 14.0

    def test_samples_actually_vary(self):
        spec = TransitionSpec(latency_s=10.0, power_w=100.0, jitter_s=4.0)
        rng = np.random.default_rng(2)
        draws = {round(spec.sample_latency_s(rng), 6) for _ in range(20)}
        assert len(draws) > 1

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            TransitionSpec(latency_s=10.0, power_w=100.0, jitter_s=-1.0)
        with pytest.raises(ValueError):
            TransitionSpec(latency_s=10.0, power_w=100.0, jitter_s=11.0)


class TestProfileJitterFactory:
    def test_jitter_fraction_applied(self):
        profile = make_prototype_blade_profile(latency_jitter=0.3)
        spec = profile.transition(PowerState.SLEEP, PowerState.ACTIVE)
        assert spec.jitter_s == pytest.approx(spec.latency_s * 0.3)

    def test_zero_jitter_default(self):
        profile = make_prototype_blade_profile()
        for spec in profile.transitions.values():
            assert spec.jitter_s == 0.0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_prototype_blade_profile(latency_jitter=1.5)


class TestJitteredMachine:
    def test_transition_time_varies_per_run(self):
        profile = make_prototype_blade_profile(latency_jitter=0.4)

        def one_transition(seed):
            env = Environment()
            machine = HostPowerStateMachine(
                env, profile, latency_rng=np.random.default_rng(seed)
            )
            proc = env.process(machine.transition_to(PowerState.SLEEP))
            env.run(until=proc)
            return env.now

        times = {one_transition(seed) for seed in range(8)}
        assert len(times) > 1
        nominal = profile.transition(PowerState.ACTIVE, PowerState.SLEEP)
        for t in times:
            assert (
                nominal.latency_s - nominal.jitter_s
                <= t
                <= nominal.latency_s + nominal.jitter_s
            )

    def test_host_jitter_deterministic_per_seed(self):
        profile = make_prototype_blade_profile(latency_jitter=0.4)

        def run_once():
            env = Environment()
            host = Host(env, "h0", profile, fault_seed=9)
            proc = env.process(host.park(PowerState.SLEEP))
            env.run(until=proc)
            return env.now

        assert run_once() == run_once()

    def test_hosts_jitter_independently(self):
        # Independent per-host draws: at least two distinct suspend
        # durations among four hosts is overwhelmingly likely for a 40 %
        # jitter band.
        profile = make_prototype_blade_profile(latency_jitter=0.4)
        env = Environment()
        durations = set()
        for name in ("h0", "h1", "h2", "h3"):
            host = Host(env, name, profile)
            start = env.now
            proc = env.process(host.park(PowerState.SLEEP))
            env.run(until=proc)
            durations.add(env.now - start)
        assert len(durations) > 1


def park_and_wake(profile, fault_seed=9, name="h0"):
    """Park a host to SLEEP and wake it; return it and its sampled latencies."""
    env = Environment()
    trace = TraceBuffer()
    host = Host(env, name, profile, fault_seed=fault_seed, trace=trace)
    env.run(until=env.process(host.park(PowerState.SLEEP)))
    env.run(until=env.process(host.wake()))
    assert host.machine.is_active
    latencies = [e.latency_s for e in trace.events if isinstance(e, TransitionStart)]
    return host, latencies


class TestLatencyGeneratorOnFirstDraw:
    def test_unjittered_host_makes_no_generator(self, monkeypatch):
        made = []

        def counted(*args):
            made.append(args)
            return stream_rng(*args)

        monkeypatch.setattr(seeding, "stream_rng", counted)
        host, latencies = park_and_wake(make_prototype_blade_profile())
        assert len(latencies) == 2
        assert made == []
        assert not isinstance(host.machine.latency_rng, np.random.Generator)

    def test_jittered_host_draws_from_its_stream(self):
        # The generator a host makes on its first jittered transition is
        # its ``latency`` stream, so it draws what one made with the host
        # would have drawn.
        profile = make_prototype_blade_profile(latency_jitter=0.4)
        for fault_seed, name in ((9, "h0"), (2013, "host-007")):
            host, latencies = park_and_wake(profile, fault_seed, name)
            rng = stream_rng("latency", fault_seed, name)
            expected = [
                profile.transition(PowerState.ACTIVE, PowerState.SLEEP).sample_latency_s(rng),
                profile.transition(PowerState.SLEEP, PowerState.ACTIVE).sample_latency_s(rng),
            ]
            assert latencies == expected
            assert isinstance(host.machine.latency_rng, np.random.Generator)
            assert host.machine.latency_rng.bit_generator.state == rng.bit_generator.state
