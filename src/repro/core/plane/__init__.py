"""The composable management plane.

One :class:`~repro.core.plane.arbiter.PowerAwareManager` built from
single-responsibility components:

* :mod:`~repro.core.plane.observer` — the picture the manager plans on:
  the stale telemetry channel and, on the neat plane, per-host local
  detectors reporting over a delayed, lossy channel;
* :mod:`~repro.core.plane.governor` — the hysteretic safe-mode governor;
* :mod:`~repro.core.plane.actuator` — the single-owner
  :class:`~repro.core.plane.actuator.WakeArbiter` power actuator (the
  overlapping-wake race fix lives here);
* :mod:`~repro.core.plane.arbiter` — the global arbiter
  (:class:`~repro.core.plane.arbiter.PowerAwareManager`);
* :mod:`~repro.core.plane.log` — the one action record every component
  books through (:meth:`~repro.core.plane.log.ManagementLog.emit`).

``ManagerConfig.plane`` selects the architecture: ``"centralized"``
(default) plans on the telemetry picture alone; ``"neat"`` gives the
manager a :class:`~repro.core.plane.observer.LocalDetectors` source.
Both run the same manager class.
"""

from repro.core.plane.actuator import WakeArbiter
from repro.core.plane.arbiter import PowerAwareManager, _EvacuationTask
from repro.core.plane.governor import SafeModeGovernor
from repro.core.plane.log import ManagementLog
from repro.core.plane.observer import (
    ClusterObserver,
    DetectorReport,
    LocalDetectors,
)

__all__ = [
    "ClusterObserver",
    "DetectorReport",
    "LocalDetectors",
    "ManagementLog",
    "PowerAwareManager",
    "SafeModeGovernor",
    "WakeArbiter",
    "_EvacuationTask",
]
