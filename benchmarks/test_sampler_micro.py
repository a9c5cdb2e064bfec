"""Micro-benchmark guard for the fused sampler tick.

``ClusterSampler.sample_once`` is the per-instant hot path; it replaces
three separate inventory walks (utilization refresh, per-class
shortfall, per-class demand) with one fused pass.  These tests pin two
properties:

1. **Float identity** — every series value the fused walk produces is
   bit-identical to a naive reference that reads every demand straight
   from the traces.
2. **Speed** — the fused tick stays comfortably cheaper than the three
   production walks it replaced on a mid-size cluster (a regression
   guard, not a race).
"""

import time

from repro.core.runner import spread_placement
from repro.datacenter import Cluster
from repro.datacenter.vm import Priority
from repro.fold import left_sum
from repro.power.dvfs import DvfsModel
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry.sampler import ClusterSampler
from repro.workload import FleetSpec, build_fleet


def trace_cores(vm, now):
    """``vm``'s demand read straight from its trace: no memo, no lattice."""
    return min(vm.trace.at(now), 1.0) * vm.vcpus


def naive_sample(cluster, now):
    """The identity reference: separate walks over direct trace reads.

    It shares no demand value with the fused tick: every VM demand comes
    from ``trace_cores``, summed in the tick's orders (hosts in inventory
    order, VMs in per-host dict order, then the registry).  Per host it
    repeats ``Host.refresh_utilization`` (the DVFS level and capacity) and
    ``Host.shortfall_by_class`` (strict-priority delivery) on those sums.
    The class demands total with the left fold the tick uses, not
    ``sum()``, which is compensated on Python 3.12.
    """
    shortfall = 0.0
    class_shortfall = {p: 0.0 for p in Priority}
    for host in cluster.hosts:
        per_class = {p: 0.0 for p in Priority}
        resident = 0.0
        for vm in host.vms.values():
            v = trace_cores(vm, now)
            resident += v
            per_class[vm.priority] += v
        tax = host.migration_tax_cores
        demand = resident + tax
        frequency = 1.0
        if host.dvfs is not None and host.is_active:
            frequency = host.dvfs.level_for(demand / host.cores, target=host.dvfs_target)
        elif host.dvfs is not None:
            frequency = host.dvfs.levels[0]
        if not host.is_active and host.vms:
            shortfall += demand
            for p in Priority:
                class_shortfall[p] += per_class[p]
            continue
        shortfall += max(0.0, demand - host.cores * frequency)
        if not host.vms:
            continue
        capacity_left = max(0.0, host.cores * frequency - tax)
        for p in sorted(Priority):
            delivered = min(per_class[p], capacity_left)
            capacity_left -= delivered
            class_shortfall[p] += per_class[p] - delivered
    class_demand = {p: 0.0 for p in Priority}
    for vm in cluster.iter_vms():
        class_demand[vm.priority] += trace_cores(vm, now)
    demand = left_sum(class_demand.values())
    return shortfall, class_shortfall, class_demand, demand


def walks_sample(cluster, now):
    """The pre-fusion walks: three separate passes over the inventory."""
    shortfall = cluster.refresh_utilization(now)
    class_shortfall = {p: 0.0 for p in Priority}
    for host in cluster.hosts:
        if not host.vms:
            continue
        for priority, cores in host.shortfall_by_class(now).items():
            class_shortfall[priority] += cores
    class_demand = {p: 0.0 for p in Priority}
    for vm in cluster.iter_vms():
        class_demand[vm.priority] += vm.demand_cores(now)
    demand = sum(class_demand.values())
    return shortfall, class_shortfall, class_demand, demand


def build_cluster(n_hosts=40, dvfs=False, seed=17):
    env = Environment()
    cluster = Cluster.homogeneous(
        env,
        PROTOTYPE_BLADE,
        n_hosts=n_hosts,
        dvfs=DvfsModel() if dvfs else None,
    )
    spec = FleetSpec(
        n_vms=4 * n_hosts, horizon_s=4 * 3600.0, shared_fraction=0.3
    )
    vms = build_fleet(spec, seed=seed)
    spread_placement(vms, cluster)
    for vm in vms:
        cluster._vms[vm.name] = vm
    return env, cluster


class TestFusedTickIdentity:
    def _assert_identical(self, dvfs):
        env, cluster = build_cluster(n_hosts=24, dvfs=dvfs)
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        for tick in range(16):
            now = float(tick) * 60.0
            env._now = now
            ref_sf, ref_cls_sf, ref_cls_d, ref_demand = naive_sample(
                cluster, now
            )
            sampler.sample_once()
            s = sampler.series
            assert s["shortfall_cores"].values[-1] == ref_sf
            assert s["demand_cores"].values[-1] == ref_demand
            assert s["shortfall_gold"].values[-1] == ref_cls_sf[Priority.GOLD]
            assert (
                s["shortfall_silver"].values[-1]
                == ref_cls_sf[Priority.SILVER]
            )
            assert (
                s["shortfall_bronze"].values[-1]
                == ref_cls_sf[Priority.BRONZE]
            )

    def test_fused_tick_matches_naive_reference(self):
        self._assert_identical(dvfs=False)

    def test_fused_tick_matches_naive_reference_with_dvfs(self):
        self._assert_identical(dvfs=True)


class TestFusedTickSpeed:
    def test_fused_tick_not_slower_than_naive(self):
        env, cluster = build_cluster(n_hosts=60)
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        ticks = 40

        start = time.perf_counter()
        for tick in range(ticks):
            env._now = float(tick) * 60.0
            sampler.sample_once()
        fused_s = time.perf_counter() - start

        start = time.perf_counter()
        for tick in range(ticks):
            walks_sample(cluster, float(tick) * 60.0)
        naive_s = time.perf_counter() - start

        # The fused walk does strictly less work (one pass, no dict
        # churn); allow head-room for timer noise rather than asserting a
        # ratio that could flake on loaded CI machines.
        assert fused_s < naive_s * 1.5, (fused_s, naive_s)
