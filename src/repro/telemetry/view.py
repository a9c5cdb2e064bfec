"""Stale telemetry: the manager's (possibly outdated) view of the cluster.

The manager does not get to read the simulation's ground truth for free.
In a real control plane, demand observations flow through a metrics
pipeline that adds publication delay and loses samples; the controller
plans against the last snapshot that actually arrived.  This module
models exactly that:

* :class:`ClusterView` — one immutable aggregate snapshot with the
  instant it was *taken* (its age is measured against that, not against
  when it became visible);
* :class:`StalenessModel` — the pipeline's pathology: a constant
  publication delay plus an i.i.d. per-tick dropout probability;
* :class:`Channel` — the management network: a constant delay plus
  per-item loss drawn by the sender from its own RNG stream.  It carries
  the sampler's snapshots to the manager's observer (the sampler draws
  loss from ``telemetry:{seed}:{tick}``) and, on the neat plane, the
  local detectors' reports to the global manager (``plane:{seed}:{round}``).
  The observer plans on the newest snapshot delivered so far and falls
  back to ground truth only before the first one lands (cold start).

With no model attached no telemetry channel is built, the manager reads
ground truth exactly as before, and fault-free runs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, List, Optional, Sequence, Tuple, TypeVar

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class ClusterView:
    """One aggregate telemetry snapshot the manager can plan against."""

    #: Instant the snapshot was taken (staleness is ``now - taken_at``).
    taken_at: float
    demand_cores: float
    committed_capacity_cores: float
    active_hosts: int
    vm_count: int

    def age_s(self, now: float) -> float:
        """Seconds between the snapshot and ``now`` (never negative)."""
        return max(0.0, now - self.taken_at)


@dataclass(frozen=True)
class StalenessModel:
    """Telemetry-pipeline pathology: publication delay plus tick dropout."""

    #: Every snapshot becomes visible ``delay_s`` after it was taken.
    delay_s: float = 0.0
    #: Probability an individual sampler tick is lost entirely.
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


class Channel(Generic[T]):
    """Delayed, lossy, in-order transport between two plane components.

    Every item sent at ``now`` becomes deliverable at ``now + delay_s``,
    and items are delivered in send order.  Loss is i.i.d. per item at
    ``dropout_rate``, but the channel owns no randomness: each sender
    draws from its own registered stream (RL012), qualified by its send
    index, so whether an item is lost depends only on the seed, that
    index and the item's position in the batch — never on how many other
    draws the simulation made.
    """

    def __init__(self, delay_s: float = 0.0, dropout_rate: float = 0.0) -> None:
        self.delay_s = delay_s
        self.dropout_rate = dropout_rate
        #: Items in flight as ``(deliver_at, item)``, in send order.
        self._pending: List[Tuple[float, T]] = []

    def send(
        self,
        items: Sequence[T],
        now: float,
        rng: Optional["np.random.Generator"] = None,
    ) -> int:
        """Enqueue ``items`` sent at ``now``; returns how many were lost.

        Item ``i`` is lost when ``rng.random(len(items))[i]`` falls below
        ``dropout_rate``.  Senders pass ``rng`` only at a positive rate,
        and a lossless channel never draws.
        """
        kept = items
        if rng is not None and self.dropout_rate > 0.0 and items:
            draws = rng.random(len(items))
            kept = [
                item for item, draw in zip(items, draws)
                if draw >= self.dropout_rate
            ]
        deliver_at = now + self.delay_s
        self._pending.extend((deliver_at, item) for item in kept)
        return len(items) - len(kept)

    def deliver(self, now: float) -> List[T]:
        """Pop every item due by ``now``, in send order."""
        due = now + 1e-12
        pending = self._pending
        ready = [item for at, item in pending if at <= due]
        if ready:
            self._pending = [(at, item) for at, item in pending if at > due]
        return ready
