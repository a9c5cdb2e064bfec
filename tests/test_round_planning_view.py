"""Every scan of a consolidation round reads its planning view as the host walks did.

``PowerAwareManager`` builds one :class:`PlanningView` per round and
every per-host scan of the round reads it: the park-candidate order,
the evacuation budgets and best fit (``PlanningView.budgets`` and
``plan_evacuation``) and the balancer's source and destination scans; a
retried migration and a maintenance drain plan on a fresh view of the
cluster.  The references below are the host-walking versions those
scans replaced: ``reference_candidates``, ``reference_shrink`` and
``reference_plan`` from ``test_shrink_round_view`` and, here, the
balancer's load dict and scans and the target lists retries and drains
built by hand.

Each seeded round is built twice, identically: hosts cloned from a few
templates (so loads, budgets and utilizations tie), anti-affinity
groups, migrations in flight (taxed hosts, reserved memory, pinned
VMs) started before and after the demand lattice's fill, VMs placed
after the fill (stale rows), hosts in maintenance or evacuating, both
``park_preference`` values and degraded neat rounds.  One copy runs the
round on the planning view and the other on the references; the
candidate order, every plan and trace event, the evacuating flags and
every balancer move after the shrink must agree.
"""

import random

import pytest

from repro.core import ManagerConfig, PowerAwareManager
from repro.core.plane import DetectorReport, LocalDetectors
from repro.core.plane.arbiter import _EvacuationTask
from repro.datacenter import Cluster, Host, VM
from repro.migration import MigrationEngine
from repro.placement import BalanceConfig, LoadBalancer, Move
from repro.placement.evacuation import plan_evacuation
from repro.placement.planning import PlanningView
from repro.prototype import LEGACY_BLADE, PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import Channel, TraceBuffer
from repro.telemetry.lattice import DemandLattice
from repro.trace_events import EvacuationPlanned
from repro.workload import FlatTrace
from tests.test_shrink_round_view import (
    reference_candidates,
    reference_plan,
    reference_shrink,
)

ROUNDS = 80


# ----------------------------------------------------------------------
# The balancer's host-walking reference
# ----------------------------------------------------------------------


def reference_moves(config, hosts, now):
    """The balancer over a load dict of the hosts' resident demand."""
    load = {h.name: h.resident_demand_cores(now) for h in hosts}
    moves = []
    for _ in range(config.max_moves_per_round):
        move = reference_single_move(config, hosts, load, now)
        if move is None:
            break
        moves.append(move)
        d = move.vm.demand_cores(now)
        load[move.src.name] -= d
        load[move.dst.name] += d
    return moves


def reference_single_move(cfg, hosts, load, now):
    src = None
    src_util = 0.0
    for h in hosts:
        if h.is_active and h.vms:
            u = load[h.name] / h.cores
            if src is None or u > src_util:
                src, src_util = h, u
    if src is None or src_util < cfg.high_watermark:
        return None
    destinations = sorted(
        (h for h in hosts if h.available_for_placement and h is not src),
        key=lambda h: load[h.name] / h.cores,
    )
    candidates = sorted(
        (vm for vm in src.vms.values() if not vm.migrating),
        key=lambda vm: (vm.priority, vm.demand_cores(now)),
        reverse=True,
    )
    for vm in candidates:
        demand = vm.demand_cores(now)
        if demand <= 0:
            continue
        for dst in destinations:
            dst_util = load[dst.name] / dst.cores
            new_dst_util = dst_util + demand / dst.cores
            new_src_util = src_util - demand / src.cores
            if not dst.fits(vm):
                continue
            if new_dst_util > cfg.dst_ceiling:
                continue
            improvement = (src_util - dst_util) - abs(new_src_util - new_dst_util)
            if improvement < cfg.min_improvement:
                continue
            return Move(vm=vm, src=src, dst=dst, reason="overload {:.2f}".format(src_util))
    return None


# ----------------------------------------------------------------------
# Seeded rounds
# ----------------------------------------------------------------------

LEVELS = [0.1, 0.25, 0.5, 0.75, 1.0]
GROUPS = ["g0", "g1", "g2"]


def random_spec(seed):
    """A round as plain data, so two builds of it are identical."""
    rng = random.Random(seed)
    templates = []
    for _ in range(rng.randint(1, 4)):
        vms = [
            dict(
                vcpus=rng.choice([1, 2, 4, 8]),
                level=rng.choice(LEVELS) if rng.random() < 0.8 else rng.uniform(0.05, 1.0),
                mem_gb=rng.choice([2.0, 4.0, 8.0, 16.0]),
                group=rng.choice(GROUPS) if rng.random() < 0.25 else None,
            )
            for _ in range(rng.randint(0, 5))
        ]
        templates.append(dict(
            cores=rng.choice([8.0, 16.0, 16.0, 32.0]),
            mem_gb=rng.choice([32.0, 64.0, 128.0]),
            legacy=rng.random() < 0.3,
            vms=vms,
        ))
    n_hosts = rng.choice([4, 9, 24, 40])
    hosts = []
    for _ in range(n_hosts):
        hosts.append(dict(
            template=rng.randrange(len(templates)),
            maintenance=rng.random() < 0.05,
            evacuating=rng.random() < 0.05,
        ))
    # (source, destination, before the fill) migrations, by host index.
    migrations = [
        (rng.randrange(n_hosts), rng.randrange(n_hosts), rng.random() < 0.5)
        for _ in range(rng.randint(0, 4))
    ]
    late = [
        (rng.randrange(n_hosts), rng.choice([1, 2, 4]), rng.choice(LEVELS))
        for _ in range(rng.randint(0, 4))
    ]
    return dict(
        templates=templates,
        hosts=hosts,
        migrations=migrations,
        late=late,
        lattice=rng.random() < 0.8,
        degraded=rng.random() < 0.2,
        report_seed=rng.randrange(1 << 30),
        config=dict(
            cpu_target=rng.choice([0.6, 0.85, 1.0]),
            max_parks_per_round=rng.choice([1, 2, 3, 8]),
            min_active_hosts=rng.choice([1, 2]),
            park_preference=rng.choice(["load", "efficiency"]),
            balance=BalanceConfig(
                high_watermark=rng.choice([0.5, 0.7, 0.85]),
                dst_ceiling=rng.choice([0.45, 0.5]),
                min_improvement=rng.choice([0.0, 0.05]),
                max_moves_per_round=rng.choice([1, 4]),
            ),
        ),
        surplus=rng.choice([1e6, 40.0]),
        evac_cpu_target=rng.choice([None, 1.0]),
    )


def build(spec):
    env = Environment()
    templates = spec["templates"]
    hosts = []
    for i, h in enumerate(spec["hosts"]):
        t = templates[h["template"]]
        profile = LEGACY_BLADE if t["legacy"] else PROTOTYPE_BLADE
        hosts.append(Host(env, "h{:02d}".format(i), profile, cores=t["cores"], mem_gb=t["mem_gb"]))
    cluster = Cluster(env, hosts)
    trace = TraceBuffer()
    detectors = None
    if spec["degraded"]:
        detectors = LocalDetectors(cluster, Channel(), seed=0)
    engine = MigrationEngine(env, max_concurrent=8, max_per_host=4)
    manager = PowerAwareManager(
        env, cluster, engine, ManagerConfig(**spec["config"]), trace=trace,
        detectors=detectors,
    )
    for i, (host, h) in enumerate(zip(hosts, spec["hosts"])):
        for j, v in enumerate(templates[h["template"]]["vms"]):
            vm = VM("vm-{}-{}".format(i, j), vcpus=v["vcpus"], mem_gb=v["mem_gb"],
                    trace=FlatTrace(v["level"]))
            vm.anti_affinity_group = v["group"]
            if host.fits(vm):
                cluster.add_vm(vm, host)

    def migrate(before):
        for src, dst, at_fill in spec["migrations"]:
            if at_fill is not before:
                continue
            vms = [vm for vm in hosts[src].vms.values() if not vm.migrating]
            if src == dst or not vms or not hosts[dst].fits(vms[0]):
                continue
            engine.migrate(vms[0], hosts[dst])
        # Run the flights' starts at this instant: each applies its tax.
        while env.peek() == env.now:
            env.step()

    migrate(before=True)
    if spec["lattice"]:
        DemandLattice(cluster, 60.0).tick(0.0)
    migrate(before=False)
    for n, (k, vcpus, level) in enumerate(spec["late"]):
        vm = VM("late-{}".format(n), vcpus=vcpus, mem_gb=2.0, trace=FlatTrace(level))
        if hosts[k].fits(vm) and hosts[k].is_active:
            cluster.add_vm(vm, hosts[k])
    for host, h in zip(hosts, spec["hosts"]):
        host.in_maintenance = h["maintenance"]
        host.evacuating = h["evacuating"]
    if detectors is not None:
        rng = random.Random(spec["report_seed"])
        detectors.degraded = True
        detectors._last_seen = {
            h.name: DetectorReport(h.name, 0.0, 0.0, rng.random() < 0.6)
            for h in hosts
            if rng.random() < 0.8
        }
    return manager, trace


def view_round(manager, surplus, evac_cpu_target):
    view = manager._planning_view()
    order = manager._park_candidates(view)
    manager._shrink(view, surplus, evac_cpu_target)
    return order, manager.balancer.moves(view)


def reference_round(manager, surplus, evac_cpu_target):
    order = reference_candidates(manager)
    reference_shrink(manager, surplus, evac_cpu_target)
    moves = reference_moves(
        manager.balancer.config, manager.cluster.active_hosts(), manager.env.now
    )
    return order, moves


def outcome(round_fn, spec):
    manager, trace = build(spec)
    before = len(trace.events)
    order, moves = round_fn(manager, spec["surplus"], spec["evac_cpu_target"])
    return dict(
        order=[h.name for h in order],
        plans=[
            (name, [(vm.name, dst.name) for vm, dst in task.plan])
            for name, task in manager._evacs.items()
        ],
        evacuating=[h.name for h in manager.cluster.hosts if h.evacuating],
        events=trace.events[before:],
        moves=[(m.vm.name, m.src.name, m.dst.name, m.reason) for m in moves],
    )


@pytest.mark.parametrize("seed", range(ROUNDS))
def test_round_on_the_view_equals_the_host_walks(seed):
    spec = random_spec(seed)
    assert outcome(view_round, spec) == outcome(reference_round, spec)


def test_rounds_reach_every_case():
    """The seeded rounds are neither vacuous nor one-sided."""
    seen = dict(started=0, failed=0, moves=0, stale=0, taxed=0, reserved=0,
                degraded=0, efficiency=0, grouped=0, tied_first=0, no_lattice=0)
    for seed in range(ROUNDS):
        spec = random_spec(seed)
        manager, _ = build(spec)
        cluster = manager.cluster
        lattice = cluster._lattice
        if lattice is None:
            seen["no_lattice"] += 1
        else:
            seen["stale"] += any(
                lattice.resident_cores(h, 0.0) is None and h.vms for h in cluster.hosts
            )
        seen["taxed"] += any(h.migration_tax_cores > 0 for h in cluster.hosts)
        seen["reserved"] += any(h.mem_reserved_gb > 0 for h in cluster.hosts)
        seen["degraded"] += spec["degraded"]
        seen["efficiency"] += spec["config"]["park_preference"] == "efficiency"
        seen["grouped"] += any(vm.anti_affinity_group for vm in cluster.iter_vms())
        loads = [h.demand_cores(0.0) for h in reference_candidates(manager)]
        seen["tied_first"] += len(loads) > 1 and loads[0] == loads[1]
        got = outcome(view_round, spec)
        seen["started"] += len(got["plans"])
        seen["failed"] += any(
            isinstance(e, EvacuationPlanned) and not e.ok for e in got["events"]
        )
        seen["moves"] += len(got["moves"])
    assert min(seen.values()) >= 5, seen


# ----------------------------------------------------------------------
# Retries and maintenance drains
# ----------------------------------------------------------------------

#: A lattice tick at fill, an instant between ticks after some flights
#: moved, and the next tick (stale rows where a flight completed).
INSTANTS = (0.0, 20.0, 60.0)


def planned(events):
    return [e for e in events if isinstance(e, EvacuationPlanned)]


def retry_case(manager, trace, host):
    """``_retry_destination`` for ``host``'s first VM against the hand-built targets."""
    cluster = manager.cluster
    now = manager.env.now
    cpu_target = manager.config.cpu_target
    host.evacuating = True
    try:
        targets = [
            t for t in cluster.placeable_hosts() if t is not host and not t.evacuating
        ]
        want_trace = TraceBuffer()
        want = reference_plan(host, targets, cpu_target, want_trace, now)
        assert plan_evacuation(manager._planning_view(), host, cpu_target) == want
        vm = next(iter(host.vms.values()))
        if vm.migrating:
            return want
        before = len(trace.events)
        got = manager._retry_destination(_EvacuationTask(host, []), vm)
        assert got == (None if want is None else dict(want)[vm])
        assert planned(trace.events[before:]) == want_trace.events
        return want
    finally:
        host.evacuating = False


def drain_case(manager, trace, host):
    """``_maintenance_drain``'s plan for ``host`` against the hand-built targets.

    The engine refuses every migration, so the drain aborts once it has
    asked for each planned one: what it asked for is its plan.
    """
    cluster = manager.cluster
    now = manager.env.now
    held = host.in_maintenance
    host.in_maintenance = True
    targets = [t for t in cluster.placeable_hosts() if t is not host]
    want_trace = TraceBuffer()
    want = reference_plan(host, targets, 1.0, want_trace, now)
    asked = []

    def refuse(vm, dst):
        asked.append((vm, dst))
        raise RuntimeError("refused")

    manager.engine.migrate = refuse
    before = len(trace.events)
    try:
        drain = manager._maintenance_drain(host)
        with pytest.raises(StopIteration) as stop:
            next(drain)
    finally:
        del manager.engine.migrate
        host.in_maintenance = held
    assert stop.value.value is False
    assert asked == ([] if want is None else want)
    assert planned(trace.events[before:]) == want_trace.events
    return want


@pytest.mark.parametrize("seed", range(0, ROUNDS, 2))
def test_retries_and_drains_plan_on_the_cluster_view(seed):
    spec = random_spec(seed)
    for at in INSTANTS:
        manager, trace = build(spec)
        manager.env.run(until=at)
        for host in manager.cluster.hosts:
            if host.is_active and not host.evacuating and host.vms:
                retry_case(manager, trace, host)
                drain_case(manager, trace, host)


def test_retries_and_drains_reach_every_case():
    seen = dict(planned=0, refused=0, pinned=0, taxed=0, reserved=0, off_tick=0, stale=0)
    for seed in range(0, ROUNDS, 2):
        spec = random_spec(seed)
        for at in INSTANTS:
            manager, trace = build(spec)
            manager.env.run(until=at)
            cluster = manager.cluster
            lattice = cluster._lattice
            if lattice is not None:
                if lattice.resident_row(at) is None:
                    seen["off_tick"] += 1
                else:
                    seen["stale"] += bool(lattice.resident_row(at)[1])
            seen["taxed"] += any(h.migration_tax_cores > 0 for h in cluster.hosts)
            seen["reserved"] += any(h.mem_reserved_gb > 0 for h in cluster.hosts)
            for host in cluster.hosts:
                if host.is_active and not host.evacuating and host.vms:
                    seen["pinned"] += any(vm.migrating for vm in host.vms.values())
                    for plan in (retry_case(manager, trace, host),
                                 drain_case(manager, trace, host)):
                        seen["planned" if plan is not None else "refused"] += 1
    assert min(seen.values()) >= 5, seen


def test_view_values_are_the_scalar_reads():
    for seed in range(0, ROUNDS, 4):
        manager, _ = build(random_spec(seed))
        view = manager._planning_view()
        for k, h in enumerate(manager.cluster.hosts):
            assert view.hosts[k] is h
            assert view.resident[k] == h.resident_demand_cores(0.0)
            assert view.load()[k] == h.demand_cores(0.0)
            assert view.cores[k] == h.cores
            assert view.mem_free()[k] == h.mem_free_gb
            assert view.active[k] == h.is_active
            assert view.placeable[k] == h.available_for_placement
            assert view.evacuating[k] == h.evacuating
            assert view.reserved()[k] == (not h.mem_reserved_gb <= 0)


def test_one_shot_balancer_equals_the_host_walks():
    """``moves`` over a view of any host list, not only a cluster's round view."""
    for seed in range(ROUNDS):
        spec = random_spec(seed)
        manager, _ = build(spec)
        hosts = manager.cluster.hosts
        config = manager.balancer.config
        got = LoadBalancer(config).moves(PlanningView.of_hosts(hosts, 0.0))
        want = reference_moves(config, hosts, 0.0)
        assert [(m.vm, m.src, m.dst, m.reason) for m in got] == [
            (m.vm, m.src, m.dst, m.reason) for m in want
        ], seed


def test_resident_row_names_exactly_the_rows_resident_cores_refuses():
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 5, cores=16.0, mem_gb=64.0)
    hosts = cluster.hosts
    for i, host in enumerate(hosts[:4]):
        cluster.add_vm(VM("vm-{}".format(i), vcpus=4, mem_gb=4.0,
                          trace=FlatTrace(0.2 + 0.1 * i)), host)
    lattice = DemandLattice(cluster, 60.0)
    lattice.tick(0.0)
    # h1 takes a VM after the fill, h2 a migration tax; h3's rows are
    # rebuilt from the next slot on, so slot 0 is stale for it.  The
    # fill gives the empty h4 no rows.
    cluster.add_vm(VM("late", vcpus=2, mem_gb=2.0, trace=FlatTrace(0.5)), hosts[1])
    hosts[2].migration_tax_cores = 0.5
    hosts[3].migration_tax_cores = 0.5
    hosts[3].migration_tax_cores = 0.0
    lattice.tick(60.0)
    assert lattice.rebuild_host(3, hosts[3])
    assert lattice.resident_row(30.0) is None
    for t, want_stale in ((0.0, [1, 2, 3, 4]), (60.0, [1, 2, 4]), (120.0, [1, 2, 4])):
        row, stale = lattice.resident_row(t)
        assert stale == want_stale
        for k, host in enumerate(hosts):
            value = lattice.resident_cores(host, t)
            assert (value is None) == (k in stale)
            if value is not None:
                assert row[k] == value
    view = PlanningView.of_cluster(cluster, 0.0)
    assert view.load().tolist() == [h.demand_cores(0.0) for h in hosts]
