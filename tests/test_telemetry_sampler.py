"""Unit tests for the cluster sampler and report builder.

``ClusterSampler.sample_once`` is the only code that refreshes hosts and
delivers demand, so it is checked here against a reference that shares
no demand value with it (``naive_sample``), and the delivery and DVFS
unit tests elsewhere run it through :func:`tick`.
"""

import pytest

from repro.core.runner import spread_placement
from repro.datacenter import Cluster, Priority, VM
from repro.fold import left_sum
from repro.power import DvfsModel, PowerState
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import ClusterSampler, SimReport, build_report
from repro.workload import FlatTrace, FleetSpec, StepTrace, build_fleet


def tick(cluster):
    """Run one ``sample_once`` at the cluster's current instant.

    Returns the shortfall cores it books and the per-class shortfall it
    records, keyed by priority.
    """
    sampler = ClusterSampler(cluster.env, cluster)
    shortfall = sampler.sample_once()
    s = sampler.series
    return shortfall, {
        Priority.GOLD: s["shortfall_gold"].values[-1],
        Priority.SILVER: s["shortfall_silver"].values[-1],
        Priority.BRONZE: s["shortfall_bronze"].values[-1],
    }


def trace_cores(vm, now):
    """``vm``'s demand read straight from its trace: no memo, no lattice."""
    return min(vm.trace.at(now), 1.0) * vm.vcpus


def naive_sample(cluster, now):
    """The tick's identity reference: separate walks over direct trace reads.

    It shares no demand value with the tick: every VM demand comes from
    ``trace_cores``, summed in the tick's orders (hosts in inventory
    order, VMs in per-host dict order, then the registry).  Per host it
    spells out the DVFS governor's level and capacity and strict-priority
    delivery (migration tax first, then GOLD, SILVER, BRONZE; a host that
    is not stably ACTIVE delivers nothing) on those sums.  The class
    demands total with the left fold the tick uses, not ``sum()``, which
    is compensated on Python 3.12.
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


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    return Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=8.0, mem_gb=64.0)


class TestSampler:
    def test_series_lengths_match_sample_count(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        assert sampler.samples == 10
        for name in ClusterSampler.SERIES:
            assert len(sampler.series[name]) == 10

    def test_demand_series_tracks_trace(self, env, cluster):
        vm = VM("vm", vcpus=4, mem_gb=8, trace=StepTrace([(0.0, 0.25), (300.0, 1.0)]))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        demand = sampler.series["demand_cores"]
        assert demand.values[0] == pytest.approx(1.0)
        assert demand.values[-1] == pytest.approx(4.0)

    def test_power_series_reflects_utilization(self, env, cluster):
        vm = VM("vm", vcpus=8, mem_gb=8, trace=FlatTrace(1.0))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=120)
        expected = PROTOTYPE_BLADE.peak_w + PROTOTYPE_BLADE.idle_w
        assert sampler.series["power_w"].values[-1] == pytest.approx(expected)

    def test_shortfall_accounting(self, env):
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 1, cores=2.0, mem_gb=64.0)
        vm = VM("vm", vcpus=4, mem_gb=8, trace=FlatTrace(1.0))  # 4 of 2 cores
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        assert sampler.violation_fraction == pytest.approx(0.5)
        assert sampler.violation_time_fraction == pytest.approx(1.0)

    def test_no_violation_when_capacity_sufficient(self, env, cluster):
        vm = VM("vm", vcpus=4, mem_gb=8, trace=FlatTrace(0.5))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        assert sampler.violation_fraction == 0.0
        assert sampler.violation_time_fraction == 0.0

    def test_host_counts_series(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=10.0)
        sampler.start()

        def park_one(env):
            yield env.timeout(25)
            yield env.process(cluster.hosts[1].park(PowerState.SLEEP))

        env.process(park_one(env))
        env.run(until=100)
        active = sampler.series["active_hosts"]
        parked = sampler.series["parked_hosts"]
        assert active.values[0] == 2
        assert active.values[-1] == 1
        assert parked.values[-1] == 1
        assert sampler.series["transitioning_hosts"].max() >= 1

    def test_negative_demand_inside_a_chunk_raises_at_its_tick(self, env, cluster):
        # The first tick precomputes demand for the next 128 ticks; a trace
        # that turns negative inside that chunk must not fail the build at
        # 0 s.  It raises from the scalar read at the first negative tick.
        class TurnsNegative:
            def at(self, t):
                return 0.5 if t < 600.0 else -0.2

        cluster.add_vm(VM("bad", vcpus=2, mem_gb=8, trace=TurnsNegative()), cluster.hosts[0])
        cluster.add_vm(VM("ok", vcpus=2, mem_gb=8, trace=FlatTrace(0.5)), cluster.hosts[1])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        with pytest.raises(ValueError, match="bad returned negative demand -0.2"):
            env.run(until=1200)
        assert env.now == 600.0
        assert sampler.samples == 10
        assert list(sampler.series["demand_cores"].values) == [2.0] * 10

    def test_double_start_rejected(self, env, cluster):
        sampler = ClusterSampler(env, cluster)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()

    def test_epoch_validation(self, env, cluster):
        with pytest.raises(ValueError):
            ClusterSampler(env, cluster, epoch_s=0)


class TestBuildReport:
    def test_report_fields(self, env, cluster):
        vm = VM("vm", vcpus=4, mem_gb=8, trace=FlatTrace(0.5))
        cluster.add_vm(vm, cluster.hosts[0])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=3600)
        report = build_report("TestPolicy", cluster, sampler, horizon_s=3600.0)
        assert report.policy == "TestPolicy"
        assert report.energy_kwh > 0
        assert report.mean_active_hosts == pytest.approx(2.0)
        assert report.migrations == 0
        assert report.violation_fraction == 0.0

    def test_transition_counting(self, env, cluster):
        def cycle(env):
            host = cluster.hosts[0]
            yield env.process(host.park(PowerState.SLEEP))
            yield env.process(host.wake())

        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.process(cycle(env))
        env.run(until=3600)
        report = build_report("p", cluster, sampler, horizon_s=3600.0)
        assert report.park_transitions == 1
        assert report.wake_transitions == 1
        assert report.transitions_per_host_per_day == pytest.approx(
            2 / 2 / (3600 / 86400)
        )

    def test_normalized_energy(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=3600)
        report = build_report("p", cluster, sampler, horizon_s=3600.0)
        assert report.normalized_energy(report.energy_kwh) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            report.normalized_energy(0.0)

    def test_header_and_row_align(self, env, cluster):
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        sampler.start()
        env.run(until=600)
        report = build_report("p", cluster, sampler, horizon_s=600.0)
        assert len(SimReport.header().split()) == len(report.row().split())


def has_row(lattice, vm):
    """Whether a rebuild can read ``vm``'s row at the selected slot.

    Its fill column, or rows an earlier class rebuild made for it.
    """
    if vm in lattice.vm_col:
        return True
    return lattice.late_rows.get(vm) is not None


def tick_steps(sampler):
    """Which step of ``sample_once`` each host takes at ``env.now``.

    Mirrors the walk's tests: ``settled`` and ``empty`` are its two short
    steps, ``rebuilt`` a stale host whose rows the tick rebuilds (it then
    takes the settled or the general step), everything else the general
    step.  The second value names the class-total path: the slot's class
    rows, rows the tick rebuilds (a VM the lattice has not met gets rows
    unless its trace goes negative before the chunk's end), or the
    registry walk.  Selecting the tick first is what ``sample_once`` does
    itself; the second selection is a no-op.
    """
    lattice = sampler.lattice
    now = sampler.env.now
    on = lattice.tick(now)
    steps = []
    for k, host in enumerate(sampler.cluster.hosts):
        active = host.is_active
        current = on and lattice.host_tags[k] == host._demand_epoch
        tax = host.migration_tax_cores
        plain = active and on and tax == 0.0 and host.dvfs is None
        if plain and not current and all(has_row(lattice, vm) for vm in host.vms.values()):
            steps.append("rebuilt")
        elif plain and current and not lattice.resident_now[k] > host.cores - 1.0:
            steps.append("settled")
        elif not active and not host.vms and tax == 0.0:
            steps.append("empty")
        elif host.dvfs is not None and host.vms:
            steps.append("general-dvfs-rows" if current else "general-dvfs")
        elif tax != 0.0:
            steps.append("general-taxed")
        elif host.vms and not current:
            steps.append("general-stale")
        else:
            steps.append("general")
    cluster = sampler.cluster
    if on and lattice.class_tag == cluster._vm_epoch:
        return steps, "registry-rows"
    ticks = [
        i * sampler.epoch_s
        for i in range(lattice._i0 + lattice._j, lattice._i0 + lattice._n)
    ]

    def gets_row(vm):
        if vm in lattice.vm_col or vm in lattice.late_rows:
            return has_row(lattice, vm)
        return min(vm.trace.at(t) for t in ticks) >= 0.0

    if on and all(gets_row(vm) for vm in cluster.iter_vms()):
        return steps, "class-rebuilt"
    return steps, "registry-walk"


def checked_run(env, sampler, script, horizon, ceiling=None):
    """Run ``script`` with every tick checked against ``naive_sample``.

    Each tick's series values, run totals, host caches, machines and
    meters must equal the direct trace-read reference bit for bit, and
    a rebuild the tick was predicted to make must have happened.
    Returns how often each path of :func:`tick_steps` ran.
    """
    cluster = sampler.cluster
    hosts = cluster.hosts
    lattice = sampler.lattice
    epoch = sampler.epoch_s
    seen = {}
    expected = {"shortfall": 0.0, "demand": 0.0}
    expected_class = {p: [0.0, 0.0] for p in Priority}
    sample_once = sampler.sample_once

    def checked_sample():
        now = env.now
        steps, registry = tick_steps(sampler)
        for step in steps + [registry]:
            seen[step] = seen.get(step, 0) + 1
        shortfall, class_sf, class_d, demand = naive_sample(cluster, now)
        sample_once()
        j = lattice._j
        for k, step in enumerate(steps):
            if step == "rebuilt":
                assert (lattice.host_tags[k], lattice.host_from[k]) == (
                    hosts[k]._demand_epoch, j
                )
        if registry == "class-rebuilt":
            assert (lattice.class_tag, lattice.class_from) == (cluster._vm_epoch, j)
        s = sampler.series
        assert s["shortfall_cores"].values[-1] == shortfall
        assert s["demand_cores"].values[-1] == demand
        for p, name in ((Priority.GOLD, "gold"), (Priority.SILVER, "silver"),
                        (Priority.BRONZE, "bronze")):
            assert s["shortfall_" + name].values[-1] == class_sf[p]
            expected_class[p][0] += class_sf[p] * epoch
            expected_class[p][1] += class_d[p] * epoch
        expected["shortfall"] += shortfall * epoch
        expected["demand"] += demand * epoch
        # Per host: the caches, the machine and the meter the step
        # wrote, from the same trace reads.
        watts = []
        overload = headroom = 0.0
        for host in hosts:
            resident = 0.0
            for vm in host.vms.values():
                resident += trace_cores(vm, now)
            demand_h = resident + host.migration_tax_cores
            assert host._demand_key == (now, host._demand_epoch)
            assert (host._resident_value, host._demand_value) == (resident, demand_h)
            machine = host.machine
            if host.is_active:
                u = min(demand_h / host.cores, 1.0)
                scale = 1.0
                if host.dvfs is not None:
                    freq = host.dvfs.level_for(demand_h / host.cores, target=host.dvfs_target)
                    assert host.frequency == freq
                    scale = host.dvfs.power_scale(freq)
                idle = machine.profile.idle_w
                power = idle + (machine.profile.active_model.power_at(u) - idle) * scale
                assert (machine.utilization, machine.meter.power_w) == (u, power)
                overload += max(0.0, demand_h - host.cores)
                if ceiling is not None and not (host.evacuating or host.in_maintenance):
                    headroom += max(0.0, host.cores * ceiling - demand_h)
            else:
                assert machine.utilization == 0.0
            watts.append(machine.meter.power_w)
        assert s["power_w"].values[-1] == left_sum(watts)
        if ceiling is not None:
            assert (sampler._agg_overload, sampler._agg_headroom) == (overload, headroom)
        assert s["vm_count"].values[-1] == cluster.vm_count
        assert s["active_hosts"].values[-1] == cluster.n_active_hosts()
        assert s["parked_hosts"].values[-1] == cluster.n_parked_hosts()
        assert s["transitioning_hosts"].values[-1] == cluster.n_transitioning_hosts()
        assert s["active_capacity_cores"].values[-1] == cluster.active_capacity_cores()
        assert s["committed_capacity_cores"].values[-1] == cluster.committed_capacity_cores()

    sampler.sample_once = checked_sample
    sampler.start()
    env.process(script(env))
    env.run(until=horizon)
    assert sampler.samples == int(horizon / epoch)
    assert (sampler.shortfall_core_s, sampler.demand_core_s) == (
        expected["shortfall"], expected["demand"]
    )
    for p in Priority:
        assert (
            sampler.class_shortfall_core_s[p], sampler.class_demand_core_s[p]
        ) == tuple(expected_class[p])
    return seen


class NegativeFrom:
    """A steady load whose trace goes negative from ``at_s`` on."""

    def __init__(self, at_s):
        self.at_s = at_s

    def at(self, t):
        return 0.45 if t < self.at_s else -0.1


class TestFusedTickIdentity:
    def _assert_identical(self, dvfs):
        env, cluster = build_cluster(n_hosts=24, dvfs=dvfs)
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        for k in range(16):
            now = float(k) * 60.0
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


class TestTickPaths:
    """Every step of the tick walk equals a direct trace-read reference."""

    def test_every_step_matches_the_trace_read_reference(self):
        env = Environment()
        cluster = Cluster.heterogeneous(
            env,
            [
                dict(count=5, profile=PROTOTYPE_BLADE, cores=16.0, mem_gb=512.0),
                dict(count=2, profile=PROTOTYPE_BLADE, cores=16.0, mem_gb=512.0, dvfs=DvfsModel()),
                # Small enough to run within a core of its capacity.
                dict(count=1, profile=PROTOTYPE_BLADE, cores=3.0, mem_gb=512.0),
            ],
        )
        hosts = cluster.hosts
        horizon = 6 * 3600.0
        fleet = build_fleet(FleetSpec(n_vms=30, horizon_s=horizon, shared_fraction=0.3), seed=11)
        spare = fleet[-3:]
        for i, vm in enumerate(fleet[:-5]):
            cluster.add_vm(vm, hosts[1 + i % 6])
        for vm in fleet[-5:-3]:
            cluster.add_vm(vm, hosts[7])
        # Negative just past the horizon, inside the last chunk (ticks
        # 256-383): the fill leaves it off, so its host keeps the general
        # step and the class totals the registry walk there.
        cluster.add_vm(VM("dips", vcpus=2, mem_gb=4.0, trace=NegativeFrom(horizon)), hosts[2])
        ceiling = 0.8
        sampler = ClusterSampler(env, cluster, epoch_s=60.0, headroom_ceiling=ceiling)

        def script(env):
            # hosts[0] is empty: parking, parked, waking, then active.
            env.process(hosts[0].park(PowerState.SLEEP))
            yield env.timeout(1800.0)
            hosts[1].migration_tax_cores = 2.5
            yield env.timeout(1800.0)
            hosts[1].migration_tax_cores = 0.0
            vm = next(iter(hosts[2].vms.values()))
            hosts[2].remove(vm)
            hosts[3].place(vm)
            yield env.timeout(1800.0)
            cluster.add_vm(spare[0], hosts[4])
            cluster.add_vm(spare[1], hosts[5])
            yield env.timeout(3600.0)
            cluster.remove_vm(next(iter(hosts[4].vms.values())))
            env.process(hosts[0].wake())

        seen = checked_run(env, sampler, script, horizon, ceiling)
        assert sampler.shortfall_core_s > 0.0
        # Not vacuous: both short steps, both rebuilds, every kind of
        # general step and the registry walk all ran.
        for step in (
            "settled", "empty", "rebuilt", "general", "general-dvfs-rows", "general-dvfs",
            "general-taxed", "general-stale", "registry-rows", "class-rebuilt",
            "registry-walk",
        ):
            assert seen.get(step, 0) > 0, (step, seen)

    def test_class_order_tax_and_parked_delivery(self):
        # A short host serving all three classes, a taxed host at
        # capacity and a parked host that still holds VMs: the strict
        # priority order, the tax's place in it and a parked host's
        # delivery all move the shortfall series.
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=4.0, mem_gb=64.0)
        short, taxed, parked = cluster.hosts
        horizon = 3 * 3600.0

        def vm(name, vcpus, level, priority):
            steps = StepTrace([(0.0, level), (3600.0, level * 0.7), (7200.0, level)])
            return VM(name, vcpus=vcpus, mem_gb=4.0, trace=steps, priority=priority)

        for i, p in enumerate((Priority.BRONZE, Priority.GOLD, Priority.SILVER)):
            cluster.add_vm(vm("short-{}".format(i), 2, 0.93 - 0.07 * i, p), short)
        for i, p in enumerate((Priority.SILVER, Priority.GOLD)):
            cluster.add_vm(vm("taxed-{}".format(i), 2, 0.91, p), taxed)
        for i, p in enumerate((Priority.GOLD, Priority.BRONZE)):
            cluster.add_vm(vm("parked-{}".format(i), 1, 0.6, p), parked)
        parked.machine._state = PowerState.SLEEP
        parked.machine.on_change()
        taxed.migration_tax_cores = 1.25
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)

        def script(env):
            yield env.timeout(5400.0)
            # Untaxed, still short: its rows are rebuilt from here on.
            taxed.migration_tax_cores = 0.0

        seen = checked_run(env, sampler, script, horizon)
        series = sampler.series
        for name in ("shortfall_gold", "shortfall_silver", "shortfall_bronze"):
            assert max(series[name].values) > 0.0, name
        assert seen["rebuilt"] == 1 and seen["general-taxed"] > 0, seen
