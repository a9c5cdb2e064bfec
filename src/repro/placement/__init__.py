"""Placement substrate: initial packing, DRM-style balancing, evacuation.

This package is pure planning — it inspects the cluster and returns
recommendations; the management layer (``repro.core``) executes them with
the migration engine.  Balancing and evacuation plan on one
:class:`PlanningView`, the per-host arrays of one instant: a round's view
of the cluster (``PlanningView.of_cluster``), or a view of an explicit
host list (``PlanningView.of_hosts``).  Keeping planning side-effect-free
makes both the baseline DRM controller and the power-aware controller
testable without a simulation run.
"""

from repro.placement.packing import (
    PackingError,
    best_fit_decreasing,
    dot_product_packing,
    first_fit_decreasing,
    pack_onto_minimal_hosts,
)
from repro.placement.balancer import BalanceConfig, LoadBalancer, Move
from repro.placement.evacuation import plan_evacuation
from repro.placement.planning import PlanningView

__all__ = [
    "BalanceConfig",
    "LoadBalancer",
    "Move",
    "PackingError",
    "PlanningView",
    "best_fit_decreasing",
    "dot_product_packing",
    "first_fit_decreasing",
    "pack_onto_minimal_hosts",
    "plan_evacuation",
]
