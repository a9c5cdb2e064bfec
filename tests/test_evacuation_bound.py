"""The evacuation planner's capacity bound never refuses a plan best fit completes.

``TargetView.bounded_demands`` refuses a host whose VMs need more memory
or CPU than the view's other targets have spare together, before best
fit runs.  The views below are seeded and random, built so that many sit
at the bound's edge: the candidate's demands and memories are packed
into its targets' budgets to within 1e-9 on either side, next to
targets with negative budgets, the candidate inside and outside the
view, VMs still migrating and anti-affinity groups.  Whenever the bound
refuses, the per-candidate best-fit loop of ``test_shrink_round_view``
must fail too, and every plan and event must equal that loop's.
"""

import random

import pytest

from repro.datacenter import Host, VM
from repro.placement.evacuation import TargetView
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import TraceBuffer
from repro.trace_events import EvacuationPlanned
from repro.workload import FlatTrace
from tests.test_shrink_round_view import reference_plan

VIEWS = 2400


def jitter(rng):
    """An offset of a budget from what is packed into it."""
    kind = rng.random()
    if kind < 0.35:
        return -rng.random() * 1e-9
    if kind < 0.6:
        return rng.random() * 1e-9
    if kind < 0.7:
        return 0.0
    if kind < 0.85:
        return rng.uniform(0.1, 4.0)
    return -rng.uniform(0.1, 4.0)


def random_view(seed):
    """One candidate, its targets and the view's cpu target.

    Each candidate VM is planted on one target, whose CPU and memory
    budgets are then the planted totals plus a jitter; the other targets
    are empty, hold their own VMs, or are overcommitted (negative
    budgets).  Returns ``(candidate, targets, cpu_target)``; the
    candidate is one of the targets when ``inside``.
    """
    rng = random.Random(seed)
    env = Environment()
    cpu_target = rng.choice([0.6, 0.85, 1.0])
    groups = ["g0", "g1", "g2"]
    n_targets = rng.randint(2, 12)
    specs = []
    for _ in range(rng.randint(1, 10)):
        specs.append(dict(
            vcpus=rng.choice([1, 2, 4, 8]),
            level=rng.uniform(0.05, 1.0),
            mem_gb=rng.choice([1.0, 2.0, 4.0, 8.0, rng.uniform(0.5, 16.0)]),
            group=rng.choice(groups) if rng.random() < 0.2 else None,
            migrating=rng.random() < 0.02,
        ))
    planted = [[0.0, 0.0] for _ in range(n_targets)]
    for spec in specs:
        k = rng.randrange(n_targets)
        spec["target"] = k
        planted[k][0] += min(spec["level"], 1.0) * spec["vcpus"]
        planted[k][1] += spec["mem_gb"]
    targets = []
    for k in range(n_targets):
        own = []
        if rng.random() < 0.3:
            own = [(rng.choice([1, 2, 4]), rng.uniform(0.1, 1.0), rng.choice([1.0, 2.0]))
                   for _ in range(rng.randint(1, 3))]
        own_cpu = 0.0
        own_mem = 0.0
        for vcpus, level, mem_gb in own:
            own_cpu += min(level, 1.0) * vcpus
            own_mem += mem_gb
        cpu_budget = planted[k][0] + jitter(rng)
        mem_budget = planted[k][1] + jitter(rng)
        overloaded = not planted[k][0] and rng.random() < 0.4
        if overloaded:
            # Negative budgets: more resident demand than the cpu target
            # allows, and memory reserved past capacity.
            cpu_budget = -rng.uniform(0.1, 3.0)
            mem_budget = -rng.uniform(0.1, 8.0)
        cores = max((cpu_budget + own_cpu) / cpu_target, 0.5)
        mem_gb = own_mem + max(mem_budget, 0.0) + 1.0
        host = Host(env, "t{}".format(k), PROTOTYPE_BLADE, cores=cores, mem_gb=mem_gb)
        for i, (vcpus, level, vm_mem) in enumerate(own):
            host.place(VM("t{}-own{}".format(k, i), vcpus=vcpus, mem_gb=vm_mem,
                          trace=FlatTrace(level)))
        # Reservations bring free memory to the budget (or below zero).
        host.mem_reserved_gb = host.mem_free_gb - mem_budget
        if rng.random() < 0.1:
            host.groups_reserved.add(rng.choice(groups))
        targets.append(host)
    inside = rng.random() < 0.5
    candidate = Host(env, "c", PROTOTYPE_BLADE, cores=rng.choice([8.0, 16.0, 64.0]),
                     mem_gb=1024.0)
    for i, spec in enumerate(specs):
        vm = VM("c-vm{}".format(i), vcpus=spec["vcpus"], mem_gb=spec["mem_gb"],
                trace=FlatTrace(spec["level"]))
        candidate.place(vm)
        vm.anti_affinity_group = spec["group"]
        vm.migrating = spec["migrating"]
    if inside:
        targets.insert(rng.randrange(len(targets) + 1), candidate)
    return candidate, targets, cpu_target


def check(seed):
    """Plan one view both ways; returns ``(refused, completed)``."""
    candidate, targets, cpu_target = random_view(seed)
    now = 0.0
    view = TargetView(targets, cpu_target, now)
    movable = [vm for vm in candidate.vms.values() if not vm.migrating]
    pinned = len(movable) != len(candidate.vms)
    refused = not pinned and view.bounded_demands(candidate, movable) is None
    got_trace = TraceBuffer()
    got = view.plan(candidate, trace=got_trace)
    want_trace = TraceBuffer()
    others = [t for t in targets if t is not candidate]
    want = reference_plan(candidate, others, cpu_target, want_trace, now)
    assert not (refused and want is not None), seed
    assert got == want, seed
    assert got_trace.events == want_trace.events, seed
    return refused, want is not None


def test_bound_never_refuses_a_plan_best_fit_completes():
    refused = completed = 0
    for seed in range(VIEWS):
        r, c = check(seed)
        refused += r
        completed += c
    # Neither vacuous nor trivial: the bound refused many plans and best
    # fit completed many.
    assert refused >= 500, refused
    assert completed >= 500, completed


def test_views_reach_every_edge():
    """The random views hold each case the bound's proof covers."""
    seen = dict(inside=0, outside=0, negative_cpu=0, negative_mem=0, pinned=0,
                grouped=0, tight=0)
    for seed in range(VIEWS):
        candidate, targets, cpu_target = random_view(seed)
        view = TargetView(targets, cpu_target, 0.0)
        seen["inside" if candidate in targets else "outside"] += 1
        seen["negative_cpu"] += any(c < 0.0 for c in view.cpu)
        seen["negative_mem"] += any(m < 0.0 for m in view.mem)
        vms = list(candidate.vms.values())
        seen["pinned"] += any(vm.migrating for vm in vms)
        seen["grouped"] += any(vm.anti_affinity_group for vm in vms)
        need = 0.0
        for vm in vms:
            need += vm.demand_cores(0.0)
        spare = 0.0
        for t, c in zip(view.hosts, view.cpu):
            if t is not candidate and c > 0.0:
                spare += c
        seen["tight"] += abs(need - spare) <= len(vms) * 1e-9
    assert min(seen.values()) >= 40, seen


def test_memory_refusal_reads_no_demand(monkeypatch):
    env = Environment()
    host = Host(env, "c", PROTOTYPE_BLADE, cores=16.0, mem_gb=64.0)
    target = Host(env, "t", PROTOTYPE_BLADE, cores=16.0, mem_gb=8.0)
    host.place(VM("a", vcpus=2, mem_gb=6.0, trace=FlatTrace(0.5)))
    host.place(VM("b", vcpus=2, mem_gb=6.0, trace=FlatTrace(0.5)))
    reads = []
    monkeypatch.setattr(VM, "demand_cores", lambda vm, t: reads.append(vm) or 1.0)
    trace = TraceBuffer()
    assert TargetView([target], 0.85, 0.0).plan(host, trace=trace) is None
    assert reads == []
    assert trace.events == [EvacuationPlanned(0.0, "c", 2, ok=False)]


def test_drop_keeps_the_spare_current():
    env = Environment()
    hosts = [Host(env, "h{}".format(i), PROTOTYPE_BLADE, cores=4.0 + i, mem_gb=8.0)
             for i in range(4)]
    hosts[1].mem_reserved_gb = 10.0
    view = TargetView(hosts, 1.0, 0.0)
    assert (view.spare_cpu, view.spare_mem) == (4.0 + 5.0 + 6.0 + 7.0, 24.0)
    view.drop(hosts[2])
    assert (view.spare_cpu, view.spare_mem) == (4.0 + 5.0 + 7.0, 16.0)
    assert hosts[2] not in view.hosts


def test_duplicate_targets_rejected():
    env = Environment()
    host = Host(env, "h", PROTOTYPE_BLADE)
    with pytest.raises(ValueError, match="distinct"):
        TargetView([host, host], 0.85, 0.0)
