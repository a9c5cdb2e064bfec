"""The management plane's eyes: the picture the manager plans on.

The observer is the only plane component that reads cluster state for
*planning* purposes, so the arbiter and the safe-mode governor consume
one consistent picture — and one honest staleness figure — instead of
each reaching into the cluster directly.  It has two sources:

* the telemetry channel (:class:`~repro.telemetry.view.Channel`) that
  carries the sampler's aggregate snapshots, delayed and lossy; and, on
  the neat plane,
* :class:`LocalDetectors` — OpenStack-Neat-style per-host detectors
  that classify their own utilization and send a
  :class:`DetectorReport` to the global manager each round over a
  second channel.  Three regimes fall out:

  * **healthy** — every active host's report for the current round has
    arrived (the default zero-delay, zero-dropout channel): the round
    plans on the telemetry picture, byte-identical to the centralized
    plane;
  * **degraded** — some reports are late or lost: demand is summed over
    the newest report per host, the staleness fed to the governor is the
    *oldest* such report's age, and only hosts that reported underload
    may park (never park a host the plane cannot see);
  * **cold start** — nothing has arrived yet: plan on the telemetry
    picture, like the telemetry channel's own cold start.

Determinism: the detectors draw report loss from the registered
``plane`` RNG stream, qualified by the round index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.seeding import stream_rng

if TYPE_CHECKING:
    from repro.core.plane.log import ManagementLog
    from repro.datacenter.cluster import Cluster
    from repro.datacenter.host import Host
    from repro.migration.engine import MigrationEngine
    from repro.telemetry.view import Channel, ClusterView

#: A local detector flags its host underloaded below this utilization.
UNDERLOAD_THRESHOLD = 0.3


@dataclass(frozen=True)
class DetectorReport:
    """One host's self-observation at one detector round."""

    host: str
    taken_at: float
    demand_cores: float
    underloaded: bool


class LocalDetectors:
    """Neat-plane observation source: per-host reports over a channel.

    Each detector reads its host's *own* demand (no cluster aggregate),
    which is the point of the decentralized plane: detection scales per
    host and survives a degraded global view.
    """

    def __init__(
        self, cluster: "Cluster", channel: "Channel[DetectorReport]", seed: int
    ) -> None:
        self.cluster = cluster
        self.channel = channel
        self.seed = seed
        self._round = 0
        #: Newest delivered report per host.
        self._last_seen: Dict[str, DetectorReport] = {}
        #: True while the current round plans on stale reports; gates
        #: :meth:`park_filter`.
        self.degraded = False

    def scan(self, now: float) -> List[DetectorReport]:
        reports: List[DetectorReport] = []
        for host in self.cluster.active_hosts():
            demand = host.demand_cores(now)
            util = demand / host.cores if host.cores > 0 else 0.0
            reports.append(
                DetectorReport(host.name, now, demand, util < UNDERLOAD_THRESHOLD)
            )
        return reports

    def observe(
        self, now: float, log: "ManagementLog"
    ) -> Optional[Tuple[float, float]]:
        """Run one detector round; ``(demand_cores, age_s)`` if degraded.

        Returns None on a healthy or cold-start round, which plans on
        the telemetry picture instead.
        """
        reports = self.scan(now)
        channel = self.channel
        rng = None
        if channel.dropout_rate > 0.0:
            rng = stream_rng("plane", self.seed, self._round)
        self._round += 1
        log.detector_reports += len(reports)
        log.detector_reports_dropped += channel.send(reports, now, rng)
        last_seen = self._last_seen
        for report in channel.deliver(now):
            prev = last_seen.get(report.host)
            if prev is None or report.taken_at >= prev.taken_at:
                last_seen[report.host] = report
        active = [h.name for h in self.cluster.active_hosts()]
        known = [last_seen[name] for name in active if name in last_seen]
        fresh = len(known) == len(active) and all(
            r.taken_at == now for r in known
        )
        self.degraded = bool(known) and not fresh
        if not self.degraded:
            return None
        demand = math.fsum(r.demand_cores for r in known)
        return demand, now - min(r.taken_at for r in known)

    def park_filter(self, hosts: List["Host"]) -> List["Host"]:
        """On a degraded round, keep only hosts that reported underload."""
        if not self.degraded:
            return hosts
        seen = self._last_seen
        return [h for h in hosts if h.name in seen and seen[h.name].underloaded]


class ClusterObserver:
    """Single source of the (possibly stale) picture the plane plans on."""

    def __init__(
        self,
        cluster: "Cluster",
        engine: "MigrationEngine",
        telemetry: Optional["Channel[ClusterView]"],
        detectors: Optional[LocalDetectors] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.telemetry = telemetry
        self.detectors = detectors
        #: Newest telemetry snapshot delivered so far.
        self._view: Optional["ClusterView"] = None

    def observe(self, now: float) -> Tuple[float, float]:
        """``(demand_cores, telemetry_age_s)`` from the telemetry channel.

        Without a telemetry channel the manager reads ground truth (age
        zero), exactly as before.  With one, sizing decisions use the
        newest *delivered* snapshot — which may be arbitrarily stale
        under the staleness model — so grow/shrink can be
        wrong-but-plausible; the live per-host checks elsewhere (watchdog
        overload trigger, stale-plan cancellation, admission fitting)
        reconcile the plan with reality when they disagree.
        """
        if self.telemetry is None:
            return self.cluster.demand_cores(now), 0.0
        for view in self.telemetry.deliver(now):
            self._view = view
        if self._view is None:
            # Cold start: nothing has arrived yet.  Plan on ground truth
            # but report the age honestly so the governor can react.
            return self.cluster.demand_cores(now), now
        return self._view.demand_cores, self._view.age_s(now)

    def plan(self, now: float, log: "ManagementLog") -> Tuple[float, float]:
        """The consolidation round's picture, on either plane.

        A degraded neat round plans on the detector reports; every other
        round plans on :meth:`observe`.
        """
        if self.detectors is not None:
            picture = self.detectors.observe(now, log)
            if picture is not None:
                return picture
        return self.observe(now)

    def park_filter(self, hosts: List["Host"]) -> List["Host"]:
        """The hosts this round's picture lets the shrink path park."""
        if self.detectors is None:
            return hosts
        return self.detectors.park_filter(hosts)

    def observed_failure_rate(
        self, now: float, window_s: float
    ) -> Tuple[float, int]:
        """``(failure_fraction, failures)`` over the trailing window.

        The engine appends records in finish-time order, so one backward
        scan bounded by the window suffices.
        """
        failed = 0
        total = 0
        for record in reversed(self.engine.records):
            if record.start_s + record.duration_s < now - window_s:
                break
            total += 1
            if record.failed:
                failed += 1
        return (failed / total if total else 0.0, failed)
