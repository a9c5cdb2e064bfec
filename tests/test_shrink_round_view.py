"""The shrink round's planning view plans exactly like per-candidate planning.

``PowerAwareManager._shrink`` plans every park candidate on the round's
planning view, whose evacuation budgets and spares are built at the
first plan and reset when a host starts evacuating.
The reference below is the loop it replaced, kept here verbatim in
behaviour: it walks the hosts for the candidate order and rebuilds the
target list and every budget for each candidate.  Each case runs one
``_shrink`` call on two identically built clusters, one per loop, and
compares the plans, the hosts flagged evacuating and every trace event
the round emits (``evacuation-planned`` and ``evac-start``).
"""

import random

import pytest

from repro.core import ManagerConfig, PowerAwareManager
from repro.core.plane.arbiter import _EvacuationTask
from repro.datacenter import Cluster, Host, VM
from repro.migration import MigrationEngine
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TraceBuffer
from repro.trace_events import EvacuationPlanned, ManagerDecision
from repro.workload import FlatTrace


def reference_plan(host, targets, cpu_target, trace, now):
    """Per-candidate best fit: fresh budgets for every target, every call."""
    cpu_budget = {}
    mem_budget = {}
    groups = {}
    usable = [t for t in targets if t.available_for_placement]
    for t in usable:
        cpu_budget[t.name] = t.cores * cpu_target - t.resident_demand_cores(now)
        mem_budget[t.name] = t.mem_free_gb
        groups[t.name] = set(t._aa_groups) | t.groups_reserved
    movable = [vm for vm in host.vms.values() if not vm.migrating]
    if len(movable) != len(host.vms):
        trace.emit(EvacuationPlanned(now, host.name, len(host.vms), ok=False))
        return None
    plan = []
    for vm in sorted(movable, key=lambda v: v.demand_cores(now), reverse=True):
        demand = vm.demand_cores(now)
        fitting = [
            t
            for t in usable
            if demand <= cpu_budget[t.name] + 1e-9
            and vm.mem_gb <= mem_budget[t.name] + 1e-9
            and (
                vm.anti_affinity_group is None
                or vm.anti_affinity_group not in groups[t.name]
            )
        ]
        if not fitting:
            trace.emit(EvacuationPlanned(now, host.name, len(movable), ok=False))
            return None
        dst = min(fitting, key=lambda t: cpu_budget[t.name] - demand)
        cpu_budget[dst.name] -= demand
        mem_budget[dst.name] -= vm.mem_gb
        if vm.anti_affinity_group is not None:
            groups[dst.name].add(vm.anti_affinity_group)
        plan.append((vm, dst))
    trace.emit(EvacuationPlanned(now, host.name, len(plan), ok=True))
    return plan


def reference_candidates(manager):
    """The host-walking park-candidate order: one key per host, ``sorted``."""
    now = manager.env.now

    def key(host):
        load = host.demand_cores(now)
        if manager.config.park_preference == "efficiency":
            return (round(load / host.cores, 1), -host.profile.idle_w, load)
        return (load,)

    hosts = [
        h
        for h in manager.cluster.active_hosts()
        if not h.evacuating and h.mem_reserved_gb <= 0
    ]
    return sorted(manager.observer.park_filter(hosts), key=key)


def reference_shrink(manager, surplus_cores, evac_cpu_target=None):
    """The shrink loop with one fresh target list and plan per candidate."""
    now = manager.env.now
    cfg = manager.config
    target = evac_cpu_target if evac_cpu_target is not None else cfg.cpu_target
    parks = 0
    for host in reference_candidates(manager):
        if parks >= cfg.max_parks_per_round:
            break
        if surplus_cores < host.cores:
            break
        if not manager._can_spare(host):
            break
        targets = [
            t
            for t in manager.cluster.placeable_hosts()
            if t is not host and not t.evacuating
        ]
        plan = reference_plan(host, targets, target, manager.log.trace, now)
        if plan is None:
            continue
        task = _EvacuationTask(host, plan)
        manager._evacs[host.name] = task
        host.evacuating = True
        manager.log.emit(
            ManagerDecision(now, "evac-start", host.name, "{} vm(s)".format(len(plan)))
        )
        manager.env.process(manager._evacuate_and_park(task))
        surplus_cores -= host.cores
        parks += 1


def vm_spec(vcpus, level=1.0, mem_gb=4.0, group=None, migrating=False,
            late_group=False):
    """``late_group`` sets the group after placement, past its check."""
    return dict(vcpus=vcpus, level=level, mem_gb=mem_gb, group=group,
                migrating=migrating, late_group=late_group)


def host_spec(vms=(), cores=16.0, mem_gb=64.0, reserved_gb=0.0,
              reserved_groups=(), maintenance=False, evacuating=False):
    return dict(vms=list(vms), cores=cores, mem_gb=mem_gb, reserved_gb=reserved_gb,
                reserved_groups=set(reserved_groups), maintenance=maintenance,
                evacuating=evacuating)


def build(hosts, config):
    env = Environment()
    cluster = Cluster(
        env,
        [
            Host(env, "h{}".format(i), PROTOTYPE_BLADE, cores=h["cores"], mem_gb=h["mem_gb"])
            for i, h in enumerate(hosts)
        ],
    )
    trace = TraceBuffer()
    manager = PowerAwareManager(env, cluster, MigrationEngine(env), config, trace=trace)
    for i, (host, spec) in enumerate(zip(cluster.hosts, hosts)):
        for j, v in enumerate(spec["vms"]):
            vm = VM("vm-{}-{}".format(i, j), vcpus=v["vcpus"], mem_gb=v["mem_gb"],
                    trace=FlatTrace(v["level"]))
            if not v["late_group"]:
                vm.anti_affinity_group = v["group"]
            if host.fits(vm):
                cluster.add_vm(vm, host)
                vm.anti_affinity_group = v["group"]
                vm.migrating = v["migrating"]
        host.mem_reserved_gb = spec["reserved_gb"]
        host.groups_reserved |= spec["reserved_groups"]
        host.in_maintenance = spec["maintenance"]
        host.evacuating = spec["evacuating"]
    return manager, trace


def outcome(shrink, hosts, config, surplus, evac_cpu_target):
    manager, trace = build(hosts, config)
    before = len(trace.events)
    shrink(manager, surplus, evac_cpu_target)
    plans = [
        (name, [(vm.name, dst.name) for vm, dst in task.plan])
        for name, task in manager._evacs.items()
    ]
    evacuating = [h.name for h in manager.cluster.hosts if h.evacuating]
    return plans, evacuating, trace.events[before:]


def view_shrink(manager, surplus_cores, evac_cpu_target=None):
    """``_shrink`` on the round's planning view."""
    manager._shrink(manager._planning_view(), surplus_cores, evac_cpu_target)


def assert_same(hosts, config, surplus=1e6, evac_cpu_target=None):
    """Both loops agree; returns the round's plans and planner events."""
    got = outcome(view_shrink, hosts, config, surplus, evac_cpu_target)
    want = outcome(reference_shrink, hosts, config, surplus, evac_cpu_target)
    assert got == want
    plans, _, events = got
    return dict(plans), [e for e in events if isinstance(e, EvacuationPlanned)]


class TestRoundView:
    def test_failed_plan_then_successful_plan(self):
        # h0's first VM takes h2's tight budget and group g0 on its
        # copy, then its 40 GB VM fits nowhere: the plan fails on memory.
        # h1's g0 VM must still see h2 with its full budget and no g0.
        hosts = [
            host_spec([vm_spec(4, group="g0", mem_gb=8), vm_spec(3, mem_gb=40)]),
            host_spec([vm_spec(4, group="g0", mem_gb=8), vm_spec(3.5, mem_gb=24)]),
            host_spec([vm_spec(9, mem_gb=30)]),
            host_spec([vm_spec(2, mem_gb=30)], reserved_gb=1.0),
        ]
        plans, planned = assert_same(hosts, ManagerConfig(max_parks_per_round=1))
        assert [(e.host, e.ok) for e in planned] == [("h0", False), ("h1", True)]
        assert plans == {"h1": [("vm-1-0", "h2"), ("vm-1-1", "h3")]}

    def test_second_evacuation_never_targets_the_first(self):
        # h0 starts evacuating first; its stale budget (12.6 cores) would
        # be h1's best fit if it stayed in the view.
        hosts = [
            host_spec([vm_spec(1)]),
            host_spec([vm_spec(2)]),
            host_spec([vm_spec(8)], cores=32.0),
            host_spec([vm_spec(12)]),
        ]
        plans, planned = assert_same(hosts, ManagerConfig(max_parks_per_round=2))
        assert plans == {"h0": [("vm-0-0", "h3")], "h1": [("vm-1-0", "h2")]}
        assert all(dst != "h0" for _, dst in plans["h1"])

    def test_group_placed_earlier_in_the_same_plan(self):
        # h2 is the tightest fit for both g0 VMs; the second must avoid
        # it.  Placement never puts one group twice on a host, so h0's
        # VMs join g0 after they are placed.
        hosts = [
            host_spec([
                vm_spec(3, group="g0", late_group=True),
                vm_spec(2, group="g0", late_group=True),
            ]),
            host_spec([vm_spec(5.6)], reserved_gb=1.0),
            host_spec([vm_spec(7.6)], reserved_gb=1.0),
        ]
        plans, _ = assert_same(hosts, ManagerConfig(max_parks_per_round=1))
        assert plans == {"h0": [("vm-0-0", "h2"), ("vm-0-1", "h1")]}

    def test_plan_fails_on_memory(self):
        # Either target has the cores for h0's VM but 31 GB free.
        hosts = [
            host_spec([vm_spec(1, mem_gb=48)]),
            host_spec([vm_spec(4, mem_gb=32)], reserved_gb=1.0),
            host_spec([vm_spec(4, mem_gb=32)], reserved_gb=1.0),
        ]
        plans, planned = assert_same(hosts, ManagerConfig(max_parks_per_round=1))
        assert plans == {}
        assert [(e.host, e.ok) for e in planned] == [("h0", False)]

    def test_pinned_candidate(self):
        # A VM still in flight pins h0: the plan fails counting every VM.
        hosts = [
            host_spec([vm_spec(1), vm_spec(1, migrating=True)]),
            host_spec([vm_spec(4)]),
            host_spec([vm_spec(6)]),
        ]
        plans, planned = assert_same(hosts, ManagerConfig(max_parks_per_round=1))
        assert (planned[0].host, planned[0].vms, planned[0].ok) == ("h0", 2, False)
        assert plans == {"h1": [("vm-1-0", "h2")]}

    def test_candidate_never_targets_itself(self):
        # h0's own budget (12.6 cores) is the tightest in the view.
        hosts = [
            host_spec([vm_spec(1)]),
            host_spec([vm_spec(8)], cores=32.0, reserved_gb=1.0),
        ]
        plans, _ = assert_same(hosts, ManagerConfig(max_parks_per_round=1))
        assert plans == {"h0": [("vm-0-0", "h1")]}

    def test_cap_forced_target_of_one(self):
        # At the default 0.85 h1 has 1.6 cores left and nothing fits; at
        # evac_cpu_target=1.0 it has 4.
        hosts = [
            host_spec([vm_spec(3)]),
            host_spec([vm_spec(12)], reserved_gb=1.0),
        ]
        plans, _ = assert_same(hosts, ManagerConfig(max_parks_per_round=1))
        assert plans == {}
        plans, _ = assert_same(
            hosts, ManagerConfig(max_parks_per_round=1), evac_cpu_target=1.0
        )
        assert plans == {"h0": [("vm-0-0", "h1")]}

    def test_unplaceable_hosts_stay_out_of_the_view(self):
        # h1 is in maintenance (a candidate, never a target) and h2 is
        # already evacuating (neither).
        hosts = [
            host_spec([vm_spec(1)]),
            host_spec([vm_spec(2)], maintenance=True),
            host_spec([vm_spec(11)], evacuating=True),
            host_spec([vm_spec(10)]),
        ]
        plans, _ = assert_same(hosts, ManagerConfig(max_parks_per_round=2))
        assert plans == {"h0": [("vm-0-0", "h3")], "h1": [("vm-1-0", "h3")]}


def random_round(seed):
    rng = random.Random(seed)
    groups = ["g0", "g1", "g2"]
    hosts = []
    for _ in range(rng.randint(3, 9)):
        vms = [
            vm_spec(
                rng.choice([1, 2, 4, 8]),
                level=rng.uniform(0.05, 1.0),
                mem_gb=rng.choice([2.0, 4.0, 8.0, 16.0]),
                group=rng.choice(groups) if rng.random() < 0.3 else None,
                migrating=rng.random() < 0.04,
            )
            for _ in range(rng.randint(0, 6))
        ]
        hosts.append(host_spec(
            vms,
            cores=rng.choice([8.0, 16.0, 16.0, 32.0]),
            mem_gb=rng.choice([32.0, 64.0]),
            reserved_gb=rng.choice([0.0] * 6 + [2.0]),
            reserved_groups=[rng.choice(groups)] if rng.random() < 0.1 else [],
            maintenance=rng.random() < 0.05,
            evacuating=rng.random() < 0.05,
        ))
    config = ManagerConfig(
        cpu_target=rng.choice([0.6, 0.85, 1.0]),
        max_parks_per_round=rng.choice([1, 2, 3, 8]),
        min_active_hosts=rng.choice([1, 2]),
        park_preference=rng.choice(["load", "efficiency"]),
    )
    surplus = rng.choice([1e6, 40.0])
    return hosts, config, surplus, rng.choice([None, 1.0])


@pytest.mark.parametrize("seed", range(60))
def test_random_rounds_match_per_candidate_planning(seed):
    hosts, config, surplus, evac_cpu_target = random_round(seed)
    assert_same(hosts, config, surplus, evac_cpu_target)


def test_random_rounds_are_not_vacuous():
    started = failed = 0
    for seed in range(60):
        hosts, config, surplus, evac_cpu_target = random_round(seed)
        plans, planned = assert_same(hosts, config, surplus, evac_cpu_target)
        started += len(plans)
        failed += sum(1 for e in planned if not e.ok)
    assert started >= 60
    assert failed >= 30
