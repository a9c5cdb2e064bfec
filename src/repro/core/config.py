"""Configuration of the power-aware manager."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.datacenter.recovery import BACKOFF_MAX_S
from repro.placement.balancer import BalanceConfig
from repro.power.states import PowerState


@dataclass
class ManagerConfig:
    """All tunables of :class:`~repro.core.PowerAwareManager`.

    The ablation experiments (A1–A4) sweep individual fields; the policy
    presets in :mod:`repro.core.policies` are named bundles of these.

    Attributes:
        name: label used in reports.
        enable_power_mgmt: False gives the pure DRM baseline (balancing
            and admission only — no parking, no waking).
        period_s: consolidation-evaluation interval.
        watchdog_period_s: fast reactive loop (shortfall wake, pending
            admissions).
        headroom: capacity margin over predicted demand (0.15 = +15 %).
        cpu_target: utilization ceiling used when packing/evacuating.
        park_state: which low-power state surplus hosts are put into.
        park_delay_rounds: consecutive surplus evaluations required before
            parking (hysteresis, A1).
        max_parks_per_round: parking rate limit.
        wake_boost_hosts: extra hosts woken beyond the computed need (A4).
        min_active_hosts: never park below this floor.
        predictor: predictor short name (A3).
        enable_balancing: run the DRM load balancer each round.
        balance: DRM balancer tunables.
        deep_park_state: if set, hosts parked beyond the first
            ``warm_pool_hosts`` go into this deeper state instead of
            ``park_state`` (the Hybrid policy: a warm S3 pool backed by
            S5 cold storage).
        warm_pool_hosts: size of the fast-wake pool when
            ``deep_park_state`` is set.
    """

    name: str = "custom"
    enable_power_mgmt: bool = True
    period_s: float = 300.0
    watchdog_period_s: float = 60.0
    headroom: float = 0.15
    cpu_target: float = 0.85
    park_state: PowerState = PowerState.SLEEP
    park_delay_rounds: int = 2
    max_parks_per_round: int = 2
    wake_boost_hosts: int = 0
    min_active_hosts: int = 1
    predictor: str = "ewma"
    enable_balancing: bool = True
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    deep_park_state: Optional[PowerState] = None
    warm_pool_hosts: int = 2
    #: Attach an ondemand DVFS governor to every host (A5 ablation).
    enable_dvfs: bool = False
    #: Optional cluster power budget in watts: wakes that would project
    #: total power above it are deferred (peak shaving / branch-circuit
    #: limits).  None disables capping.
    power_cap_w: Optional[float] = None
    #: Park-candidate ordering: "load" (emptiest host first — fewest
    #: migrations) or "efficiency" (within a load bucket, prefer parking
    #: the host with the highest idle draw — biggest saving; matters on
    #: heterogeneous, mixed-generation clusters).
    park_preference: str = "load"
    #: Queued admissions waiting longer than this are rejected back to the
    #: requester (None = wait indefinitely).  Mirrors the provisioning
    #: SLA real clouds put on placement.
    admission_timeout_s: Optional[float] = None
    #: Fault recovery (see :mod:`repro.datacenter.recovery`): minimum wait
    #: before retrying a host whose wake failed; doubles per consecutive
    #: failure up to the scoreboard's ``BACKOFF_MAX_S`` ceiling.
    wake_backoff_base_s: float = 60.0
    #: After this many consecutive failures a host is blacklisted for
    #: ``blacklist_hold_s`` and the manager wakes *different* hosts.
    blacklist_after_failures: int = 3
    blacklist_hold_s: float = 1800.0
    #: Watchdog escalation: when a capacity shortfall persists across this
    #: many consecutive watchdog ticks, wake ``escalation_boost_hosts``
    #: extra hosts beyond the computed need (None disables escalation).
    escalation_after_ticks: Optional[int] = 3
    escalation_boost_hosts: int = 1
    #: Migration retry policy (evacuations only; balancer moves are
    #: opportunistic and simply retried by the next balancing round): a
    #: failed mid-copy migration is retried up to this many times ...
    migration_retry_limit: int = 2
    #: ... after an exponential backoff ``30 s * 2^(attempt-1)`` capped at
    #: this, re-planning the destination when the original target is no
    #: longer viable.
    migration_backoff_max_s: float = 300.0
    #: Total wall-clock budget for one VM's retry chain; once exceeded no
    #: further retry starts and the evacuation aborts (None = unbounded).
    migration_deadline_s: Optional[float] = 1800.0
    #: Safe-mode governor: freeze consolidation (no new evacuations or
    #: parks; in-flight evacuations drain) when the observed migration
    #: failure fraction reaches this threshold, or the telemetry the
    #: manager plans against goes stale (window, failure floor, age limit
    #: and hold are constants of :mod:`repro.core.plane.governor`).  None
    #: disables the governor.
    safe_mode_failure_threshold: Optional[float] = 0.5
    #: Management-plane architecture (see :mod:`repro.core.plane`):
    #: "centralized" plans on the telemetry view directly; "neat" runs
    #: the OpenStack-Neat-style split — per-host local detectors feeding
    #: the global manager through a delayed, lossy report channel.
    plane: str = "centralized"
    #: Neat-mode report channel: delivery delay and i.i.d. report loss
    #: between local detectors and the global manager.  The zero/zero
    #: default makes fault-free neat runs byte-identical to centralized.
    neat_request_delay_s: float = 0.0
    neat_request_dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.period_s <= 0 or self.watchdog_period_s <= 0:
            raise ValueError("periods must be positive")
        if self.headroom < 0:
            raise ValueError("headroom must be >= 0")
        if not 0.0 < self.cpu_target <= 1.0:
            raise ValueError("cpu_target must be in (0, 1]")
        if not self.park_state.is_parked:
            raise ValueError("park_state must be a parked state")
        if self.park_delay_rounds < 0:
            raise ValueError("park_delay_rounds must be >= 0")
        if self.max_parks_per_round < 1:
            raise ValueError("max_parks_per_round must be >= 1")
        if self.wake_boost_hosts < 0:
            raise ValueError("wake_boost_hosts must be >= 0")
        if self.min_active_hosts < 1:
            raise ValueError("min_active_hosts must be >= 1")
        if self.deep_park_state is not None and not self.deep_park_state.is_parked:
            raise ValueError("deep_park_state must be a parked state")
        if self.warm_pool_hosts < 0:
            raise ValueError("warm_pool_hosts must be >= 0")
        if self.power_cap_w is not None and self.power_cap_w <= 0:
            raise ValueError("power_cap_w must be positive when set")
        if self.park_preference not in ("load", "efficiency"):
            raise ValueError("park_preference must be 'load' or 'efficiency'")
        if self.admission_timeout_s is not None and self.admission_timeout_s <= 0:
            raise ValueError("admission_timeout_s must be positive when set")
        if not 0.0 < self.wake_backoff_base_s <= BACKOFF_MAX_S:
            raise ValueError(
                "wake_backoff_base_s must be in (0, {}]".format(BACKOFF_MAX_S)
            )
        if self.blacklist_after_failures < 1:
            raise ValueError("blacklist_after_failures must be >= 1")
        if self.blacklist_hold_s <= 0:
            raise ValueError("blacklist_hold_s must be positive")
        if self.escalation_after_ticks is not None and self.escalation_after_ticks < 1:
            raise ValueError("escalation_after_ticks must be >= 1 when set")
        if self.escalation_boost_hosts < 1:
            raise ValueError("escalation_boost_hosts must be >= 1")
        if self.migration_retry_limit < 0:
            raise ValueError("migration_retry_limit must be >= 0")
        if self.migration_backoff_max_s <= 0:
            raise ValueError("migration_backoff_max_s must be positive")
        if self.migration_deadline_s is not None and self.migration_deadline_s <= 0:
            raise ValueError("migration_deadline_s must be positive when set")
        if self.safe_mode_failure_threshold is not None and not (
            0.0 < self.safe_mode_failure_threshold <= 1.0
        ):
            raise ValueError(
                "safe_mode_failure_threshold must be in (0, 1] when set"
            )
        if self.plane not in ("centralized", "neat"):
            raise ValueError("plane must be 'centralized' or 'neat'")
        if self.neat_request_delay_s < 0:
            raise ValueError("neat_request_delay_s must be >= 0")
        if not 0.0 <= self.neat_request_dropout < 1.0:
            raise ValueError("neat_request_dropout must be in [0, 1)")

    def with_overrides(self, **kwargs: Any) -> "ManagerConfig":
        """A copy with selected fields replaced (used by sweeps)."""
        return replace(self, **kwargs)
