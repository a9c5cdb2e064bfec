"""DRS-style load balancer — the paper's *base DRM* whose overhead the
power-aware manager must not exceed.

Each invocation looks at measured host utilizations and recommends at most
``max_moves_per_round`` migrations that (a) relieve hosts above the high
watermark and (b) reduce overall imbalance, provided each move clears the
minimum-improvement bar (real DRM products apply exactly this kind of
cost/benefit filter to avoid migration churn).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.datacenter.host import Host
from repro.datacenter.vm import VM
from repro.placement.planning import PlanningView


@dataclass(frozen=True)
class Move:
    """A recommended migration."""

    vm: VM
    src: Host
    dst: Host
    reason: str

    def __repr__(self) -> str:
        return "<Move {}: {} -> {} ({})>".format(
            self.vm.name, self.src.name, self.dst.name, self.reason
        )


@dataclass
class BalanceConfig:
    """Tunables of the balancing pass."""

    high_watermark: float = 0.85
    #: A move must cut the src/dst utilization gap by at least this much.
    min_improvement: float = 0.05
    max_moves_per_round: int = 4
    #: Never push a destination above this utilization with the move.
    dst_ceiling: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.dst_ceiling <= self.high_watermark <= 1.0:
            raise ValueError("need 0 < dst_ceiling <= high_watermark <= 1")
        if self.min_improvement < 0:
            raise ValueError("min_improvement must be >= 0")
        if self.max_moves_per_round < 1:
            raise ValueError("max_moves_per_round must be >= 1")


class LoadBalancer:
    """Stateless recommender over a snapshot of host demand."""

    def __init__(self, config: Optional[BalanceConfig] = None) -> None:
        self.config = config or BalanceConfig()

    def moves(self, view: PlanningView) -> List[Move]:
        """Return up to ``max_moves_per_round`` de-overload/balance moves.

        VM demand is read at the view's instant; per-host loads are the
        hosts' resident demand.  Sources are the active hosts,
        destinations the placeable ones.
        """
        cfg = self.config
        now = view.now
        # Utilization per host, mutated as moves are chosen.
        load = view.resident.copy()
        moves: List[Move] = []
        for _ in range(cfg.max_moves_per_round):
            found = self._best_single_move(view, load)
            if found is None:
                break
            move, src, dst = found
            moves.append(move)
            d = move.vm.demand_cores(now)
            load[src] -= d
            load[dst] += d
        return moves

    def _best_single_move(
        self, view: PlanningView, load: np.ndarray
    ) -> Optional[Tuple[Move, int, int]]:
        cfg = self.config
        hosts = view.hosts
        util = load / view.cores
        # Source: the first maximum over the active hosts that hold VMs.
        # A host without VMs is at utilization 0 unless an earlier move
        # of this pass planned load onto it; it is passed over as found.
        candidates = np.where(view.active, util, -np.inf)
        while True:
            k = int(candidates.argmax())
            src_util = candidates.item(k)
            if src_util < cfg.high_watermark:
                return None
            if hosts[k].vms:
                break
            candidates[k] = -np.inf
        src = hosts[k]
        # Destinations: least utilized first, ties in host order.
        dests = np.flatnonzero(view.placeable)
        dests = dests[dests != k]
        dests = dests[np.argsort(util[dests], kind="stable")]
        dest_utils = util[dests].tolist()
        dests_list = dests.tolist()
        # Prefer moving low-priority VMs (migration slowdown lands on the
        # class that can best absorb it), biggest movers first per class.
        now = view.now
        movers = sorted(
            (vm for vm in src.vms.values() if not vm.migrating),
            key=lambda vm: (vm.priority, vm.demand_cores(now)),
            reverse=True,
        )
        for vm in movers:
            demand = vm.demand_cores(now)
            if demand <= 0:
                continue
            for d, dst_util in zip(dests_list, dest_utils):
                dst = hosts[d]
                new_dst_util = dst_util + demand / dst.cores
                new_src_util = src_util - demand / src.cores
                if not dst.fits(vm):
                    continue
                if new_dst_util > cfg.dst_ceiling:
                    continue
                improvement = (src_util - dst_util) - (
                    abs(new_src_util - new_dst_util)
                )
                if improvement < cfg.min_improvement:
                    continue
                move = Move(
                    vm=vm, src=src, dst=dst, reason="overload {:.2f}".format(src_util)
                )
                return move, k, d
        return None
