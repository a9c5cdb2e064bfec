"""Unit tests for simulation processes."""

import pytest

from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestProcessBasics:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"

    def test_is_alive_transitions(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_name_is_generator_name(self, env):
        def my_activity(env):
            yield env.timeout(1)

        assert env.process(my_activity(env)).name == "my_activity"

    def test_waiting_on_another_process(self, env):
        def child(env):
            yield env.timeout(3)
            return 99

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        p = env.process(parent(env))
        env.run()
        assert p.value == 100

    def test_yield_already_processed_event(self, env):
        t = env.timeout(0, value="old")
        env.step()

        def proc(env):
            v = yield t
            return v

        p = env.process(proc(env))
        env.run()
        assert p.value == "old"

    def test_yield_non_event_raises_inside_process(self, env):
        def proc(env):
            with pytest.raises(TypeError, match="non-event"):
                yield 42
            return "recovered"

        p = env.process(proc(env))
        env.run()
        assert p.value == "recovered"

    def test_exception_propagates_to_waiter(self, env):
        def bad(env):
            yield env.timeout(1)
            raise KeyError("missing")

        def waiter(env):
            try:
                yield env.process(bad(env))
            except KeyError:
                return "caught"
            return "not caught"

        p = env.process(waiter(env))
        env.run()
        assert p.value == "caught"

    def test_unwaited_crash_surfaces_to_run(self, env):
        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("crash")

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="crash"):
            env.run()

    def test_target_exposed_while_waiting(self, env):
        t_holder = {}

        def proc(env):
            t_holder["timeout"] = env.timeout(10)
            yield t_holder["timeout"]

        p = env.process(proc(env))
        env.run(until=5)
        assert p.target is t_holder["timeout"]
