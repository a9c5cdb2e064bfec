"""VM arrival/departure churn.

The paper's overhead-parity claim (T3/F7) requires ongoing provisioning
activity: the DRM baseline already migrates and places VMs, and power
management must not add disproportionate work on top.  This process
injects Poisson arrivals with exponential lifetimes through whatever
``admit``/``retire`` callbacks the management layer provides.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.datacenter.vm import VM
from repro.sim import ResumeSpec
from repro.workload.fleet import FleetSpec, _VmDraws


class ChurnGenerator:
    """Drives VM arrivals and departures inside a simulation.

    Args:
        env: simulation environment.
        seed: RNG seed (all draws flow from it).
        admit: callback ``(vm) -> bool``; False means admission was
            rejected (no capacity) — the VM is dropped and counted.
        retire: callback ``(vm) -> None`` removing a departed VM.
        arrival_rate_per_h: Poisson arrival rate.
        mean_lifetime_s: exponential mean VM lifetime.
        spec: fleet spec used to draw each arriving VM's shape.
    """

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        seed: int,
        admit: Callable[[VM], bool],
        retire: Callable[[VM], None],
        arrival_rate_per_h: float = 4.0,
        mean_lifetime_s: float = 6 * 3600.0,
        spec: Optional[FleetSpec] = None,
    ) -> None:
        if arrival_rate_per_h <= 0 or mean_lifetime_s <= 0:
            raise ValueError("rates and lifetimes must be positive")
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.admit = admit
        self.retire = retire
        self.arrival_rate_per_h = arrival_rate_per_h
        self.mean_lifetime_s = mean_lifetime_s
        self.spec = spec or FleetSpec(n_vms=1)
        self.arrived = 0
        self.rejected = 0
        self.departed = 0
        self._next_id = 0
        self._live: List[VM] = []

    @property
    def live_vms(self) -> List[VM]:
        return list(self._live)

    def start(self) -> "Process":  # noqa: F821
        """Launch the arrival process; returns it."""
        return self.env.process(
            self._arrivals(), ckpt=ResumeSpec(self, "_arrivals")
        )

    def _draw_vm(self) -> VM:
        # The draw tables are rebuilt per arrival rather than kept: a new
        # attribute would change the pickled generator that checkpoints hold.
        self._next_id += 1
        return _VmDraws(self.spec).draw(self.rng, "churn-{:05d}".format(self._next_id))

    def _arrivals(self, resume_at: Optional[float] = None):
        # Each inter-arrival gap is drawn when its timeout is *created*,
        # before the wait — so a checkpoint taken during the wait has
        # already consumed the draw.  Resume therefore re-arms the
        # recorded fire instant without touching the RNG; the restored
        # generator state continues the sequence exactly.
        mean_gap_s = 3600.0 / self.arrival_rate_per_h
        if resume_at is not None:
            yield self.env.timeout_at(resume_at)
            self._arrive_one()
        while True:
            yield self.env.timeout(float(self.rng.exponential(mean_gap_s)))
            self._arrive_one()

    def _arrive_one(self) -> None:
        vm = self._draw_vm()
        self.arrived += 1
        if self.admit(vm):
            self._live.append(vm)
            self.env.process(
                self._lifetime(vm), ckpt=ResumeSpec(self, "_lifetime", (vm,))
            )
        else:
            self.rejected += 1

    def _lifetime(self, vm: VM, resume_at: Optional[float] = None):
        if resume_at is not None:
            yield self.env.timeout_at(resume_at)
        else:
            yield self.env.timeout(
                float(self.rng.exponential(self.mean_lifetime_s))
            )
        # The VM may still be mid-migration; departure simply detaches it —
        # the migration process tolerates a vanished VM.
        self._live.remove(vm)
        self.departed += 1
        self.retire(vm)
