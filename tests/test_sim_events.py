"""Unit tests for the event primitives."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Event,
    EventAlreadyTriggered,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_fresh_event_is_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()

    def test_fail_requires_exception_instance(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_stores_exception(self, env):
        ev = env.event()
        exc = ValueError("boom")
        ev.fail(exc)
        assert not ev.ok
        assert ev.value is exc

    def test_processed_after_step(self, env):
        ev = env.event()
        ev.succeed("x")
        env.step()
        assert ev.processed

    def test_callbacks_invoked_with_event(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(seen.append)
        ev.succeed()
        env.step()
        assert seen == [ev]

    def test_trigger_mirrors_other_event(self, env):
        src = env.event()
        src.succeed("payload")
        dst = env.event()
        dst.trigger(src)
        assert dst.triggered
        assert dst.value == "payload"

    def test_unhandled_failure_surfaces_at_step(self, env):
        ev = env.event()
        ev.fail(RuntimeError("unconsumed"))
        with pytest.raises(RuntimeError, match="unconsumed"):
            env.step()

    def test_defused_failure_does_not_surface(self, env):
        ev = env.event()
        ev.fail(RuntimeError("quiet"))
        ev.defused = True
        env.step()  # should not raise


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0, value="now")
        env.step()
        assert t.processed
        assert t.value == "now"

    def test_fires_at_correct_time(self, env):
        fired = []

        def proc(env):
            yield env.timeout(5.5)
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [5.5]

    def test_delay_property(self, env):
        assert env.timeout(3.0).delay == 3.0

    def test_carries_value(self, env):
        got = []

        def proc(env):
            got.append((yield env.timeout(1, value="v")))

        env.process(proc(env))
        env.run()
        assert got == ["v"]


class TestConditions:
    def test_all_of_waits_for_every_event(self, env):
        order = []

        def proc(env):
            results = yield env.all_of([env.timeout(2, "a"), env.timeout(5, "b")])
            order.append((env.now, sorted(results.values())))

        env.process(proc(env))
        env.run()
        assert order == [(5.0, ["a", "b"])]

    def test_empty_all_of_succeeds_immediately(self, env):
        cond = env.all_of([])
        assert cond.triggered
        assert cond.value == {}

    def test_condition_propagates_failure(self, env):
        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner failure")

        def waiter(env):
            with pytest.raises(ValueError, match="inner failure"):
                yield env.all_of([env.process(failer(env)), env.timeout(10)])
            return "handled"

        p = env.process(waiter(env))
        env.run(until=p)
        assert p.value == "handled"

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.timeout(1), other.timeout(1)])

    def test_all_of_with_already_processed_events(self, env):
        t = env.timeout(0)
        env.step()
        assert t.processed
        cond = env.all_of([t, env.timeout(1)])
        env.run(until=2)
        assert cond.processed
