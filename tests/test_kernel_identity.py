"""Bitwise identity of the batched kernel against the scalar paths.

The fleet-scale kernel (the demand lattice's vectorized VM, host and
class rows, vectorized power curves, fleet set-up's array trace grids and
CDF class draws) is an *optimization*, not a behavior change: every
value it serves must equal — bit for bit, not within a tolerance — what
the scalar code path computes.  These tests pin that contract
directly, below the level the golden trace and differential suites
already cover.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import s3_policy
from repro.core.runner import build_scenario
from repro.datacenter import VM, Cluster
from repro.datacenter.faults import FaultModel, MigrationFaultModel
from repro.datacenter.vm import Priority
from repro.power.models import LinearPowerModel, PiecewisePowerModel
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import ClusterSampler
from repro.telemetry.lattice import DemandLattice
from repro.workload import FleetSpec
from repro.workload.fleet import _Choice, _make_shared_trace, build_fleet
from repro.workload.traces import (
    BurstyTrace,
    CompositeTrace,
    DiurnalTrace,
    FlatTrace,
    NoisyTrace,
    PlateauTrace,
    SampledTrace,
    ScaledTrace,
    SpikeTrace,
    StepTrace,
    Trace,
    WeeklyTrace,
    trace_grid,
    trace_grids,
)


class TestPowerGridIdentity:
    """``power_at_grid`` returns exactly ``power_at`` per element."""

    def _points(self):
        rng = random.Random(20130624)
        pts = [rng.random() for _ in range(500)]
        # Edges and exact knot hits matter most for piecewise curves.
        pts += [0.0, 1.0, 0.1, 0.2, 0.25, 0.5, 0.75, 0.9]
        return pts

    def test_linear_model(self):
        model = LinearPowerModel(idle_w=155.0, peak_w=269.0)
        pts = self._points()
        grid = model.power_at_grid(pts)
        assert [float(v) for v in grid] == [model.power_at(u) for u in pts]

    def test_piecewise_model(self):
        model = PiecewisePowerModel(
            [(0.0, 150.0), (0.25, 190.0), (0.5, 220.0), (1.0, 270.0)]
        )
        pts = self._points()
        grid = model.power_at_grid(pts)
        assert [float(v) for v in grid] == [model.power_at(u) for u in pts]


class TestTraceGridIdentity:
    """``trace_grids`` equals scalar ``trace.at`` over the whole fleet."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_fleet_traces_bit_identical(self, seed):
        fleet = build_fleet(
            FleetSpec(n_vms=24, horizon_s=86_400.0, shared_fraction=0.3),
            seed=seed,
        )
        ticks = [i * 60.0 for i in range(0, 256)]
        grids = trace_grids([vm.trace for vm in fleet], ticks)
        for vm, grid in zip(fleet, grids):
            scalar = [vm.trace.at(t) for t in ticks]
            assert [float(v) for v in grid] == scalar, vm.name
            assert trace_grid(vm.trace, ticks).tolist() == scalar, vm.name

    def test_shared_index_cache_is_per_shape(self):
        # Sample grids of different shapes in one batch are gathered
        # separately: no block serves another shape's columns.
        fleet = build_fleet(
            FleetSpec(n_vms=8, horizon_s=86_400.0), seed=1
        )
        traces = [vm.trace for vm in fleet] + [BurstyTrace(3, horizon_s=7_200.0)]
        ticks = [i * 300.0 for i in range(64)]
        for trace, grid in zip(traces, trace_grids(traces, ticks)):
            assert [float(v) for v in grid] == [trace.at(t) for t in ticks]


class DipsBelowZero(Trace):
    """Half load, then a negative fraction from ``at_s`` on."""

    def __init__(self, at_s):
        self.at_s = at_s

    def at(self, t):
        return 0.5 if t < self.at_s else -0.25


_LEVEL = st.floats(0.0, 1.0)
_SEEDS = st.integers(0, 2**31 - 1)
#: (horizon, step) of the sample grids: tiny grids wrap inside one chunk.
_GRIDS = st.sampled_from([(120.0, 60.0), (600.0, 60.0), (900.0, 300.0), (7_200.0, 60.0)])


@st.composite
def leaf_traces(draw):
    """One trace of any kind but a composite."""
    kind = draw(st.sampled_from(
        ["sampled", "bursty", "spike", "noisy", "diurnal", "flat", "step", "plateau",
         "weekly", "scaled"]
    ))
    horizon, step = draw(_GRIDS)
    if kind == "sampled":
        return SampledTrace(draw(st.lists(_LEVEL, min_size=1, max_size=50)), step_s=step)
    if kind == "bursty":
        return BurstyTrace(draw(_SEEDS), mean_gap_s=600.0, mean_burst_s=300.0,
                           horizon_s=horizon, step_s=step)
    if kind == "spike":
        return SpikeTrace(draw(_SEEDS), spikes_per_day=200.0, horizon_s=horizon, step_s=step)
    diurnal = DiurnalTrace(
        *sorted([draw(_LEVEL), draw(_LEVEL)]),
        period_s=draw(st.sampled_from([3_600.0, 86_400.0])),
        peak_hour=draw(st.floats(0.0, 24.0)),
        sharpness=draw(st.sampled_from([1.0, 0.7, 2.5])),
    )
    if kind == "noisy":
        inner = diurnal if draw(st.booleans()) else FlatTrace(draw(_LEVEL))
        return NoisyTrace(inner, draw(_SEEDS), sigma=0.1, horizon_s=horizon, step_s=step)
    if kind == "diurnal":
        return diurnal
    if kind == "flat":
        return FlatTrace(draw(_LEVEL))
    if kind == "step":
        steps = st.lists(st.tuples(st.floats(0.0, 1e6), _LEVEL), min_size=1, max_size=5)
        return StepTrace(draw(steps))
    if kind == "plateau":
        ramp_s = draw(st.sampled_from([0.0, 1_800.0]))
        return PlateauTrace(*sorted([draw(_LEVEL), draw(_LEVEL)]), ramp_s=ramp_s)
    if kind == "weekly":
        return WeeklyTrace(diurnal, weekend_factor=draw(_LEVEL))
    return ScaledTrace(diurnal, draw(st.floats(0.0, 3.0)))


@st.composite
def trace_lists(draw):
    """Traces of every kind, composites sharing parts and nesting."""
    pool = draw(st.lists(leaf_traces(), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        parts = draw(st.lists(
            st.tuples(st.floats(0.0, 2.0), st.sampled_from(pool)), min_size=1, max_size=4
        ))
        pool.append(CompositeTrace(parts))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


#: A chunk of tick instants: any epoch, starting anywhere, wrapped grids
#: and chunks past the end of every grid included.
_CHUNKS = st.tuples(
    st.sampled_from([30.0, 45.0, 60.0, 300.0]), st.integers(0, 20_000), st.integers(1, 40)
).map(lambda c: [i * c[0] for i in range(c[1], c[1] + c[2])])


class TestBatchedGridIdentity:
    """Row ``i`` of ``trace_grids`` is ``traces[i].at(t)`` at every tick."""

    @settings(max_examples=150, deadline=None)
    @given(traces=trace_lists(), ticks=_CHUNKS, as_array=st.booleans())
    def test_rows_equal_scalar_at(self, traces, ticks, as_array):
        grid = trace_grids(traces, np.array(ticks) if as_array else ticks)
        assert grid.shape == (len(traces), len(ticks))
        for trace, row in zip(traces, grid):
            scalar = np.array([trace.at(t) for t in ticks], dtype=float)
            assert row.tobytes() == scalar.tobytes(), trace
            assert trace_grid(trace, ticks).tobytes() == scalar.tobytes(), trace

    @settings(max_examples=40, deadline=None)
    @given(traces=trace_lists(), i0=st.integers(0, 2_000), dip=st.integers(0, 127))
    def test_fill_keeps_a_negative_row_off_the_lattice(self, traces, i0, dip):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 3, cores=16.0, mem_gb=1024.0)
        epoch = 60.0
        bad = VM("dips", 2, 1.0, DipsBelowZero((i0 + dip) * epoch))
        vms = [VM("vm-{}".format(i), 1 + i % 4, 1.0, t) for i, t in enumerate(traces)]
        for i, vm in enumerate(vms + [bad]):
            cluster.add_vm(vm, cluster.hosts[i % 3])
        lattice = DemandLattice(cluster, epoch)
        lattice._fill(i0)
        assert bad not in lattice.vm_col
        assert lattice.class_tag is None
        ticks = [i * epoch for i in range(i0, i0 + lattice.CHUNK_TICKS)]
        for vm in vms:
            column = lattice._vm[:, lattice.vm_col[vm]]
            scalar = np.array([min(vm.trace.at(t), 1.0) * vm.vcpus for t in ticks])
            assert column.tobytes() == scalar.tobytes()
        for k, host in enumerate(cluster.hosts):
            current = lattice.host_tags[k] == host._demand_epoch
            assert current == (bool(host.vms) and bad.host is not host)
            if current:
                resident = np.zeros(len(ticks))
                for vm in host.vms.values():
                    resident += lattice._vm[:, lattice.vm_col[vm]]
                assert lattice._hosts[:, 0, k].tobytes() == resident.tobytes()


class TestScenarioGridIdentity:
    """Public demand reads equal the scalar walk at every lattice instant."""

    def test_host_and_vm_grids_match_scalar_walk(self):
        # Churn admits VMs mid-chunk and failing migrations move hosts'
        # demand epochs, so the lattice must both serve and refuse reads.
        horizon = 6 * 3600.0
        live = build_scenario(
            s3_policy(),
            n_hosts=8,
            horizon_s=horizon,
            seed=3,
            fleet_spec=FleetSpec(n_vms=32, horizon_s=horizon),
            churn_rate_per_h=6.0,
            churn_lifetime_s=1800.0,
            fault_model=FaultModel(migration=MigrationFaultModel(failure_rate=0.3)),
        )
        env, cluster = live.env, live.cluster
        lattice = live.sampler.lattice
        epoch = live.sampler.epoch_s
        served = {"vm": 0, "host": 0, "cluster": 0}
        # Refusals while ``t``'s slot exists: a VM without a row (admitted
        # after the fill) or a host whose demand epoch moved since it.
        refused = {"vm": 0, "host": 0}
        for i in range(1, int(horizon / epoch)):
            t = i * epoch
            # Stops before the events at ``t``: no memo holds ``t`` yet.
            env.run(until=t)
            scalar = {
                vm: min(vm.trace.at(t), 1.0) * vm.vcpus for vm in cluster.iter_vms()
            }
            vm_rows = {vm: lattice.vm_cores(vm, t) for vm in scalar}
            # Every VM placed before the fill has a row, so ``t`` has a
            # slot exactly when some VM read is served.
            slot = any(row is not None for row in vm_rows.values())
            for k, host in enumerate(cluster.hosts):
                expected = 0.0
                for vm in host.vms.values():
                    expected += scalar[vm]
                row = lattice.resident_cores(host, t)
                if row is not None:
                    assert row == expected
                    u = min(expected / host.cores, 1.0)
                    assert lattice.util_now[k] == u
                    assert (
                        lattice.power_now[k]
                        == host.machine.profile.active_model.power_at(u)
                    )
                    served["host"] += 1
                elif slot and host.vms:
                    refused["host"] += 1
                assert host.demand_cores(t) == expected + host.migration_tax_cores
                assert host.resident_demand_cores(t) == expected
            expected = 0.0
            for value in scalar.values():
                expected += value
            total = lattice.registry_cores(t)
            if total is not None:
                assert total == expected
                served["cluster"] += 1
            assert cluster.demand_cores(t) == expected
            for vm, value in scalar.items():
                row = vm_rows[vm]
                if row is not None:
                    assert row == value
                    served["vm"] += 1
                elif slot:
                    refused["vm"] += 1
                assert vm.demand_cores(t) == value
        assert live.churn.arrived > 0
        assert live.engine.failed > 0
        # Neither vacuous nor all-lattice: both paths ran.
        assert served["vm"] > 1000 and served["host"] > 100, served
        assert served["cluster"] > 20, served
        assert min(refused.values()) > 0, refused


class TestRebuiltRows:
    """Rows the tick rebuilds in place hold from their slot on, never before."""

    def test_rebuilt_rows_equal_scalar_and_refuse_earlier_slots(self):
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=16.0, mem_gb=256.0)
        a, b = cluster.hosts
        fleet = build_fleet(FleetSpec(n_vms=9, horizon_s=4 * 3600.0, shared_fraction=0.3), seed=5)
        for i, vm in enumerate(fleet[:-1]):
            cluster.add_vm(vm, cluster.hosts[i % 2])
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        lattice = sampler.lattice
        sampler.start()
        env.run(until=5 * 60.0 + 1.0)
        moved = next(iter(a.vms.values()))
        a.remove(moved)
        b.place(moved)
        cluster.add_vm(fleet[-1], b)
        # Tick 6 rebuilds a's rows and the class rows (b holds a VM the
        # lattice has not met yet); tick 7 rebuilds b's from the VM rows
        # tick 6 made.
        env.run(until=7 * 60.0 + 1.0)
        assert lattice.host_from == [6, 7] and lattice.class_from == 6
        assert (lattice.host_tags, lattice.class_tag) == (
            [a._demand_epoch, b._demand_epoch], cluster._vm_epoch
        )
        for i in range(1, lattice.CHUNK_TICKS):
            t = i * 60.0
            residents = []
            for k, host in enumerate(cluster.hosts):
                expected = 0.0
                for vm in host.vms.values():
                    expected += min(vm.trace.at(t), 1.0) * vm.vcpus
                residents.append(expected)
                row = lattice.resident_cores(host, t)
                if i < lattice.host_from[k]:
                    assert row is None
                else:
                    assert row == expected
                    u = min(expected / host.cores, 1.0)
                    assert lattice.util_now[k] == u
                    assert lattice.power_now[k] == host.machine.profile.active_model.power_at(u)
            totals = [0.0] * 4
            for vm in cluster.iter_vms():
                v = min(vm.trace.at(t), 1.0) * vm.vcpus
                totals[vm.priority] += v
                totals[3] += v
            if i < lattice.class_from:
                assert lattice.registry_cores(t) is None
            else:
                assert lattice.registry_cores(t) == totals[3]
                assert lattice.classes_now == totals


    def test_class_rows_rebuild_after_an_empty_fill(self):
        # Every VM arrives after the fill: the class rows come from rows
        # made for VMs the lattice had not met.
        env = Environment()
        cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 2, cores=16.0, mem_gb=256.0)
        sampler = ClusterSampler(env, cluster, epoch_s=60.0)
        lattice = sampler.lattice
        sampler.start()
        env.run(until=2 * 60.0 + 1.0)
        fleet = build_fleet(FleetSpec(n_vms=5, horizon_s=3600.0), seed=9)
        for i, vm in enumerate(fleet):
            cluster.add_vm(vm, cluster.hosts[i % 2])
        env.run(until=4 * 60.0 + 1.0)
        assert (lattice.class_tag, lattice.class_from) == (cluster._vm_epoch, 3)
        assert lattice.host_from == [4, 4]
        t = 4 * 60.0
        totals = [0.0] * 4
        for vm in cluster.iter_vms():
            v = min(vm.trace.at(t), 1.0) * vm.vcpus
            totals[vm.priority] += v
            totals[3] += v
        assert lattice.registry_cores(t) == totals[3]
        assert lattice.classes_now == totals
        gold, silver, bronze, _ = totals
        assert sampler.series["demand_cores"].values[-1] == gold + silver + bronze


def reference_samples(archetype, rng, spec):
    """``_make_trace``'s draws, with each noisy base read by scalar ``at``."""
    seed = int(rng.integers(0, 2**31 - 1))
    if archetype == "diurnal":
        inner = DiurnalTrace(
            low=float(rng.uniform(0.05, 0.2)),
            high=float(rng.uniform(0.5, 0.9)),
            peak_hour=float(rng.uniform(10.0, 17.0)),
            sharpness=float(rng.uniform(0.8, 2.0)),
        )
    elif archetype == "flat":
        inner = FlatTrace(float(rng.uniform(0.15, 0.5)))
    elif archetype == "bursty":
        return BurstyTrace(
            seed,
            base=float(rng.uniform(0.05, 0.15)),
            burst=float(rng.uniform(0.6, 0.95)),
            mean_gap_s=float(rng.uniform(1.0, 4.0)) * 3600.0,
            mean_burst_s=float(rng.uniform(10.0, 40.0)) * 60.0,
            horizon_s=spec.horizon_s,
        )._samples
    else:
        return SpikeTrace(
            seed,
            base=float(rng.uniform(0.02, 0.08)),
            spikes_per_day=float(rng.uniform(3.0, 10.0)),
            spike_s=float(rng.uniform(2.0, 10.0)) * 60.0,
            horizon_s=spec.horizon_s,
        )._samples
    noise = np.random.default_rng(seed)
    n = int(spec.horizon_s // 60.0)
    base = np.array([inner.at(i * 60.0) for i in range(n)])
    return np.clip(base + noise.normal(0.0, spec.noise_sigma, size=n), 0.0, 1.0)


def reference_fleet(spec, seed):
    """The fleet loop with one ``rng.choice`` per class draw.

    Yields ``(name, vcpus, mem_gb, priority, samples, shared)`` per VM.
    """
    rng = np.random.default_rng(seed)

    def normalized(weights):
        p = np.array(weights, dtype=float)
        p /= p.sum()
        return p

    archetypes = sorted(spec.archetype_weights)
    archetype_p = normalized([spec.archetype_weights[a] for a in archetypes])
    vcpu_p = normalized(spec.vcpu_weights)
    classes = sorted(spec.priority_weights)
    class_p = normalized([spec.priority_weights[c] for c in classes])
    shared = _make_shared_trace(spec, rng) if spec.shared_fraction > 0 else None
    for i in range(spec.n_vms):
        archetype = str(rng.choice(archetypes, p=archetype_p))
        vcpus = int(rng.choice(spec.vcpu_choices, p=vcpu_p))
        samples = reference_samples(archetype, rng, spec)
        priority = Priority[str(rng.choice(classes, p=class_p)).upper()]
        name = "vm-{:04d}".format(i)
        yield name, vcpus, vcpus * spec.mem_gb_per_vcpu, priority, samples, shared


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


class TestSetupIdentity:
    """Fleet set-up's array passes and CDF draws equal the scalar paths."""

    @pytest.mark.parametrize("seed", [7, 2013])
    @pytest.mark.parametrize("hours", [2, 48])
    @pytest.mark.parametrize(
        "mix",
        [
            dict(shared_fraction=0.3, shared_kind="diurnal"),
            dict(shared_fraction=0.3, shared_kind="bursty"),
            dict(shared_fraction=0.0),
            dict(
                archetype_weights={"diurnal": 0.6, "flat": 0.0, "spiky": 0.4},
                vcpu_weights=(0.0, 0.5, 0.5, 0.0),
                priority_weights={"gold": 0.0, "silver": 1.0, "bronze": 1.0},
            ),
        ],
        ids=["shared-diurnal", "shared-bursty", "unshared", "zero-weights"],
    )
    def test_build_fleet_matches_the_choice_loop(self, seed, hours, mix):
        spec = FleetSpec(n_vms=48, horizon_s=hours * 3600.0, **mix)
        fleet = build_fleet(spec, seed=seed)
        reference = list(reference_fleet(spec, seed))
        assert len(fleet) == len(reference)
        shared = None
        for vm, (name, vcpus, mem_gb, priority, samples, ref_shared) in zip(fleet, reference):
            assert (vm.name, vm.vcpus, vm.mem_gb, vm.priority) == (
                name, vcpus, mem_gb, priority
            ), vm.name
            trace = vm.trace
            if ref_shared is not None:
                assert isinstance(trace, CompositeTrace)
                (w_shared, shared_part), (w_own, trace) = trace.parts
                assert (w_shared, w_own) == (
                    spec.shared_fraction, 1.0 - spec.shared_fraction
                )
                # One shared signal for the whole fleet, equal to the loop's.
                shared = shared_part if shared is None else shared
                assert shared_part is shared
                assert type(shared_part) is type(ref_shared)
                if isinstance(ref_shared, BurstyTrace):
                    assert shared_part._samples.tobytes() == ref_shared._samples.tobytes()
                else:
                    assert vars(shared_part) == vars(ref_shared)
            assert trace._samples.tobytes() == samples.tobytes(), vm.name

    @given(
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        period_s=st.floats(min_value=1.0, max_value=1e7),
        peak_hour=st.floats(min_value=-48.0, max_value=48.0),
        sharpness=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=8.0)),
        ticks=st.lists(_FLOATS, min_size=1, max_size=64),
    )
    def test_diurnal_grid_equals_scalar_at(self, bounds, period_s, peak_hour, sharpness, ticks):
        trace = DiurnalTrace(bounds[0], bounds[1], period_s, peak_hour, sharpness)
        scalar = np.array([trace.at(t) for t in ticks], dtype=float).tobytes()
        assert trace_grid(trace, ticks).tobytes() == scalar
        assert trace_grid(trace, np.array(ticks, dtype=float)).tobytes() == scalar

    @given(level=st.floats(0.0, 1.0), ticks=st.lists(_FLOATS, max_size=64))
    def test_flat_grid_equals_scalar_at(self, level, ticks):
        trace = FlatTrace(level)
        scalar = np.array([trace.at(t) for t in ticks], dtype=float).tobytes()
        assert trace_grid(trace, ticks).tobytes() == scalar
        assert trace_grid(trace, np.array(ticks, dtype=float)).tobytes() == scalar

    @given(
        weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8).filter(
            lambda w: sum(w) > 0
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cdf_draw_equals_generator_choice(self, weights, seed):
        values = list(range(len(weights)))
        p = np.array(weights, dtype=float)
        p /= p.sum()
        choice = _Choice(values, weights)
        ours, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert choice.draw(ours) == int(numpy_.choice(values, p=p))
            assert ours.bit_generator.state == numpy_.bit_generator.state
