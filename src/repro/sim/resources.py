"""Shared-resource primitive: a counted, priority-ordered semaphore.

The migration engine uses it to cap concurrent live migrations.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.sim.events import Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the slot ...
    """

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` slots; :meth:`request` returns an event that fires when a
    slot is granted; :meth:`release` frees a slot and wakes the next waiter.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:  # noqa: F821
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got {}".format(capacity))
        self.env = env
        self._capacity = capacity
        self._users: List[Request] = []
        self._queue: List[Tuple[int, int, Request]] = []
        self._tie = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of granted (in-use) slots."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Free the slot held by ``request`` (idempotent for unknown reqs)."""
        try:
            self._users.remove(request)
        except ValueError:
            self._cancel(request)
            return
        self._grant_next()

    def _enqueue(self, request: Request) -> None:
        self._tie += 1
        heapq.heappush(self._queue, (request.priority, self._tie, request))
        self._grant_next()

    def _cancel(self, request: Request) -> None:
        self._queue = [entry for entry in self._queue if entry[2] is not request]
        heapq.heapify(self._queue)

    def _grant_next(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            _, _, nxt = heapq.heappop(self._queue)
            if nxt.triggered:
                continue
            self._users.append(nxt)
            nxt.succeed(self)

    def __repr__(self) -> str:
        return "<{} {}/{} used, {} queued>".format(
            type(self).__name__, self.count, self._capacity, self.queued
        )
