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
from typing import Callable, List, Optional, Sequence

from repro.datacenter.host import Host
from repro.datacenter.vm import VM

DemandFn = Callable[[VM], float]


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

    def recommend(
        self,
        hosts: Sequence[Host],
        now: float = 0.0,
    ) -> List[Move]:
        """Return up to ``max_moves_per_round`` de-overload/balance moves.

        VM demand is read at ``now``; per-host loads come from the
        resident-demand cache.
        """
        cfg = self.config

        def demand_fn(vm: VM) -> float:
            return vm.demand_cores(now)

        # Planning view: utilization per host, mutated as moves are chosen.
        load = {h.name: h.resident_demand_cores(now) for h in hosts}
        moves: List[Move] = []
        for _ in range(cfg.max_moves_per_round):
            move = self._best_single_move(hosts, load, demand_fn)
            if move is None:
                break
            moves.append(move)
            d = demand_fn(move.vm)
            load[move.src.name] -= d
            load[move.dst.name] += d
        return moves

    def _utilization(self, host: Host, load: dict) -> float:
        return load[host.name] / host.cores

    def _best_single_move(
        self,
        hosts: Sequence[Host],
        load: dict,
        demand_fn: DemandFn,
    ) -> Optional[Move]:
        cfg = self.config
        # Single max pass instead of a full descending sort: strict ``>``
        # keeps the first host among equal utilizations — the same host a
        # stable reverse sort put at index 0.
        src: Optional[Host] = None
        src_util = 0.0
        for h in hosts:
            if h.is_active and h.vms:
                u = self._utilization(h, load)
                if src is None or u > src_util:
                    src, src_util = h, u
        if src is None:
            return None
        if src_util < cfg.high_watermark:
            return None
        destinations = sorted(
            (h for h in hosts if h.available_for_placement and h is not src),
            key=lambda h: self._utilization(h, load),
        )
        # Prefer moving low-priority VMs (migration slowdown lands on the
        # class that can best absorb it), biggest movers first per class.
        candidates = sorted(
            (vm for vm in src.vms.values() if not vm.migrating),
            key=lambda vm: (vm.priority, demand_fn(vm)),
            reverse=True,
        )
        for vm in candidates:
            demand = demand_fn(vm)
            if demand <= 0:
                continue
            for dst in destinations:
                dst_util = self._utilization(dst, load)
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
                return Move(
                    vm=vm, src=src, dst=dst, reason="overload {:.2f}".format(src_util)
                )
        return None
