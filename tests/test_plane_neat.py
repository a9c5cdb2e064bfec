"""The decentralized ("neat") management plane.

Three layers:

* **Equivalence** — with the default lossless zero-delay report
  channel, a fault-free neat run must produce a JSONL trace
  byte-identical to the centralized plane on the pinned golden scenario.
  The decomposition is a refactor, not a behaviour change, until the
  channel is degraded.
* **Degradation** — with delivery delay and dropout the global manager
  plans on stale partial reports: rounds are flagged degraded, staleness
  feeds the safe-mode governor, parking is restricted to hosts with
  fresh underload evidence, and the run still certifies.
* **Fuzz smoke** — fifty generated scenarios forced onto the neat axis
  must run without setup or invariant errors.
"""

import dataclasses

from repro.core import ManagerConfig, PowerAwareManager, run_scenario, s3_policy
from repro.core.plane import DetectorReport, LocalDetectors
from repro.core.seeding import stream_rng
from repro.datacenter import Cluster, VM
from repro.fuzz.generate import generate_spec
from repro.fuzz.oracle import run_spec
from repro.migration import MigrationEngine
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment
from repro.telemetry import Channel, validate_trace
from repro.workload import FlatTrace

#: Same pinned scenario as tests/test_trace_scenarios.py.
GOLDEN_KW = dict(
    n_hosts=8,
    n_vms=24,
    horizon_s=6 * 3600.0,
    seed=3,
    churn_rate_per_h=2.0,
)


def report(host, taken_at, underloaded=True, demand=0.0):
    return DetectorReport(
        host=host, taken_at=taken_at, demand_cores=demand,
        underloaded=underloaded,
    )


class TestDetectorBank:
    def build(self):
        env = Environment()
        cluster = Cluster.homogeneous(
            env, PROTOTYPE_BLADE, 2, cores=16.0, mem_gb=128.0
        )
        cluster.add_vm(
            VM("vm-0", vcpus=16, mem_gb=16, trace=FlatTrace(1.0)),
            cluster.hosts[0],
        )
        return LocalDetectors(cluster, Channel(), seed=0)

    def test_flags_follow_local_utilization(self):
        bank = self.build()
        by_host = {r.host: r for r in bank.scan(0.0)}
        busy, idle = by_host["host-000"], by_host["host-001"]
        assert not busy.underloaded
        assert busy.demand_cores == 16.0
        assert idle.underloaded
        assert idle.demand_cores == 0.0

    def test_reports_stamp_the_scan_time(self):
        bank = self.build()
        assert {r.taken_at for r in bank.scan(123.0)} == {123.0}


class TestRequestChannel:
    """The report channel between local detectors and the manager."""

    def test_delay_holds_reports_until_due(self):
        ch = Channel(120.0)
        r = report("h0", 0.0)
        assert ch.send([r], 0.0) == 0
        assert ch.deliver(0.0) == []
        assert ch.deliver(119.0) == []
        assert ch.deliver(120.0) == [r]
        assert ch.deliver(120.0) == []  # popped, not re-delivered

    def test_zero_delay_delivers_in_the_same_round(self):
        ch = Channel()
        r = report("h0", 50.0)
        ch.send([r], 50.0)
        assert ch.deliver(50.0) == [r]

    def test_dropout_is_deterministic_per_seed_and_round(self):
        reports = [report("h{}".format(i), 0.0) for i in range(64)]
        a = Channel(0.0, 0.5)
        b = Channel(0.0, 0.5)
        dropped_a = a.send(list(reports), 0.0, stream_rng("plane", 9, 3))
        dropped_b = b.send(list(reports), 0.0, stream_rng("plane", 9, 3))
        assert dropped_a == dropped_b
        assert 0 < dropped_a < 64
        assert a.deliver(0.0) == b.deliver(0.0)

    def test_zero_dropout_consumes_no_rng(self):
        ch = Channel()
        rng = stream_rng("plane", 1, 0)
        state = rng.bit_generator.state
        assert ch.send([report("h0", 0.0)], 0.0, rng) == 0
        assert rng.bit_generator.state == state


def build_neat(cfg, n_hosts=3):
    env = Environment()
    cluster = Cluster.homogeneous(
        env, PROTOTYPE_BLADE, n_hosts, cores=16.0, mem_gb=128.0
    )
    engine = MigrationEngine(env)
    detectors = LocalDetectors(
        cluster,
        Channel(cfg.neat_request_delay_s, cfg.neat_request_dropout),
        seed=0,
    )
    manager = PowerAwareManager(env, cluster, engine, cfg, detectors=detectors)
    return env, cluster, manager


class TestNeatObservation:
    def cfg(self, **overrides):
        kw = dict(plane="neat", period_s=300, watchdog_period_s=60)
        kw.update(overrides)
        return ManagerConfig(**kw)

    def test_healthy_round_matches_centralized_observation(self):
        env, cluster, manager = build_neat(self.cfg())
        cluster.add_vm(
            VM("vm-0", vcpus=8, mem_gb=16, trace=FlatTrace(0.5)),
            cluster.hosts[0],
        )
        observer = manager.observer
        assert observer.plan(0.0, manager.log) == observer.observe(0.0)
        assert observer.detectors.degraded is False
        assert manager.log.detector_reports == 3
        assert manager.log.detector_reports_dropped == 0

    def test_delayed_reports_degrade_the_round(self):
        env, cluster, manager = build_neat(
            self.cfg(neat_request_delay_s=120.0)
        )
        cluster.add_vm(
            VM("vm-0", vcpus=8, mem_gb=16, trace=FlatTrace(0.5)),
            cluster.hosts[0],
        )
        observer = manager.observer
        # Cold start: the t=0 reports are still in flight, nothing has
        # ever arrived — fall back to the centralized observation.
        observer.plan(0.0, manager.log)
        assert observer.detectors.degraded is False
        # Next round: the t=0 reports have landed but are 300 s old.
        demand, age = observer.plan(300.0, manager.log)
        assert observer.detectors.degraded is True
        assert age == 300.0
        assert demand == 4.0  # 8 vcpus * 0.5 util, as self-observed at t=0

    def test_degraded_round_restricts_park_candidates(self):
        env, cluster, manager = build_neat(self.cfg())
        baseline = manager._park_candidates(manager._planning_view())
        assert {h.name for h in baseline} == {
            "host-000", "host-001", "host-002"
        }
        # A degraded round may only park on fresh local underload
        # evidence: never park a host the plane cannot see.
        detectors = manager.observer.detectors
        detectors.degraded = True
        detectors._last_seen = {
            "host-000": report("host-000", 0.0, underloaded=True),
            "host-001": report("host-001", 0.0, underloaded=False),
        }
        view = manager._planning_view()
        assert [h.name for h in manager._park_candidates(view)] == ["host-000"]


class TestPlaneEquivalence:
    def test_fault_free_neat_trace_is_byte_identical(self):
        base = run_scenario(s3_policy(), trace=True, **GOLDEN_KW)
        neat = run_scenario(
            s3_policy().with_overrides(plane="neat"), trace=True, **GOLDEN_KW
        )
        assert neat.trace.to_jsonl() == base.trace.to_jsonl()
        assert neat.report.energy_kwh == base.report.energy_kwh

    def test_neat_books_detector_traffic_centralized_does_not(self):
        base = run_scenario(s3_policy(), **GOLDEN_KW)
        neat = run_scenario(
            s3_policy().with_overrides(plane="neat"), **GOLDEN_KW
        )
        assert neat.report.extra["detector_reports"] > 0
        assert neat.report.extra["detector_reports_dropped"] == 0.0
        assert base.report.extra["detector_reports"] == 0.0


class TestDegradedChannel:
    def degraded_policy(self):
        return s3_policy().with_overrides(
            plane="neat",
            neat_request_delay_s=120.0,
            neat_request_dropout=0.2,
        )

    def test_degraded_run_stays_certified(self):
        result = run_scenario(
            self.degraded_policy(), trace=True,
            n_hosts=6, n_vms=14, horizon_s=4 * 3600.0, seed=7,
            churn_rate_per_h=2.0,
        )
        checked = validate_trace(result.trace, report=result.report)
        assert checked.ok, "\n" + checked.render_text()
        assert result.report.extra["detector_reports_dropped"] > 0

    def test_degraded_run_is_deterministic(self):
        kw = dict(n_hosts=4, n_vms=8, horizon_s=2 * 3600.0, seed=5)
        a = run_scenario(self.degraded_policy(), trace=True, **kw)
        b = run_scenario(self.degraded_policy(), trace=True, **kw)
        assert a.trace.to_jsonl() == b.trace.to_jsonl()


class TestNeatFuzzSmoke:
    def test_fifty_neat_specs_run_clean(self):
        # The generator samples both planes; force every spec onto the
        # neat axis and cap the horizon so fifty runs stay a smoke test.
        for index in range(50):
            spec = generate_spec(20260808, index)
            spec = dataclasses.replace(
                spec,
                horizon_s=min(spec.horizon_s, 3600.0),
                policy=dataclasses.replace(spec.policy, plane="neat"),
            )
            outcome = run_spec(spec, cache=False)
            assert outcome.status != "error", (index, outcome.error)
