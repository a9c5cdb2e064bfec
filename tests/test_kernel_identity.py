"""Bitwise identity of the batched kernel against the scalar paths.

The fleet-scale kernel (the demand lattice's vectorized VM, host and
class rows, vectorized power curves) is an *optimization*, not a behavior
change: every value it serves must equal — bit for bit, not within a
tolerance — what the scalar code path computes.  These tests pin that
contract directly, below the level the golden trace and differential
suites already cover.
"""

import random

import pytest

from repro.core import s3_policy
from repro.core.runner import build_scenario
from repro.datacenter.faults import FaultModel, MigrationFaultModel
from repro.power.models import LinearPowerModel, PiecewisePowerModel
from repro.workload import FleetSpec
from repro.workload.fleet import build_fleet
from repro.workload.traces import trace_grid


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
    """``trace_grid`` equals scalar ``trace.at`` over the whole fleet."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_fleet_traces_bit_identical(self, seed):
        fleet = build_fleet(
            FleetSpec(n_vms=24, horizon_s=86_400.0, shared_fraction=0.3),
            seed=seed,
        )
        ticks = [i * 60.0 for i in range(0, 256)]
        cache = {}
        for vm in fleet:
            grid = trace_grid(vm.trace, ticks, cache)
            scalar = [vm.trace.at(t) for t in ticks]
            assert [float(v) for v in grid] == scalar, vm.name

    def test_shared_index_cache_is_per_shape(self):
        # Two sample grids of different shapes through one cache must not
        # serve each other's gather indices.
        fleet = build_fleet(
            FleetSpec(n_vms=8, horizon_s=86_400.0), seed=1
        )
        ticks = [i * 300.0 for i in range(64)]
        cache = {}
        for vm in fleet:
            grid = trace_grid(vm.trace, ticks, cache)
            assert [float(v) for v in grid] == [vm.trace.at(t) for t in ticks]


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
