"""Unit tests for shared-resource primitives."""

import pytest

from repro.sim import Environment, Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self, env):
        res = Resource(env, capacity=2)
        log = []

        def worker(env, tag):
            with res.request() as req:
                yield req
                log.append((env.now, tag, "in"))
                yield env.timeout(10)
            log.append((env.now, tag, "out"))

        for tag in "abc":
            env.process(worker(env, tag))
        env.run()
        ins = [(t, tag) for t, tag, what in log if what == "in"]
        assert ins == [(0.0, "a"), (0.0, "b"), (10.0, "c")]

    def test_fifo_granting(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, tag, arrive):
            yield env.timeout(arrive)
            with res.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(5)

        env.process(worker(env, "first", 1))
        env.process(worker(env, "second", 2))
        env.process(worker(env, "third", 3))
        env.run()
        assert order == ["first", "second", "third"]

    def test_priority_request_jumps_queue(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, tag, arrive, prio):
            yield env.timeout(arrive)
            with res.request(priority=prio) as req:
                yield req
                order.append(tag)
                yield env.timeout(10)

        env.process(worker(env, "holder", 0, 0))
        env.process(worker(env, "normal", 1, 5))
        env.process(worker(env, "urgent", 2, -5))
        env.run()
        assert order == ["holder", "urgent", "normal"]

    def test_count_and_queued(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def checker(env):
            yield env.timeout(5)
            res.request()
            yield env.timeout(0)
            assert res.count == 1
            assert res.queued == 1

        env.process(holder(env))
        env.process(checker(env))
        env.run()

    def test_release_unknown_request_is_cancel(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        assert res.count == 1
        stray = res.request()
        assert res.queued == 1
        res.release(stray)  # never granted: acts as cancel
        assert res.queued == 0
        res.release(req)
        assert res.count == 0
