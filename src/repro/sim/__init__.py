"""Discrete-event simulation kernel.

A small, dependency-free, simpy-style kernel: generator-based processes
scheduled on a deterministic event heap.  The rest of the reproduction —
power-state machines, migrations, management controllers — is written as
processes on top of this package.

Typical usage::

    from repro.sim import Environment

    def clock(env, period):
        while True:
            yield env.timeout(period)
            print("tick at", env.now)

    env = Environment()
    env.process(clock(env, 10.0))
    env.run(until=100.0)
"""

from repro.sim.events import (
    AllOf,
    Condition,
    Event,
    EventAlreadyTriggered,
    SharedTimeout,
    Timeout,
)
from repro.sim.process import Process, ResumeSpec
from repro.sim.environment import Environment, StopSimulation
from repro.sim.resources import Request, Resource

__all__ = [
    "AllOf",
    "Condition",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "Process",
    "Request",
    "Resource",
    "ResumeSpec",
    "SharedTimeout",
    "StopSimulation",
    "Timeout",
]
