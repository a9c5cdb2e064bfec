"""A sweep's fleet store: specs that draw one fleet place copies of one build.

``run_scenarios`` gives each process that runs specs one
:class:`~repro.core.runner.FleetStore` for the call.  These tests hold it
to its promise: a sweep's outputs (artifacts, decision trace, checkpoint
files) are byte for byte those of each spec run alone without a store,
a serial sweep builds each consecutive ``(FleetSpec, seed)`` group's
fleet once, the pristine fleet is never placed, and fleets that differ in
any spec field or in the seed never share a build.
"""

import pickle
from pathlib import Path

import pytest

import repro.core.runner as runner
from repro.core import ScenarioSpec, run_scenarios, s3_policy, s5_policy
from repro.workload import FleetSpec, build_fleet

HOURS = 6.0
HORIZON_S = HOURS * 3600.0
SEEDS = (3, 4)


def fleet_spec(**overrides):
    return FleetSpec(n_vms=24, horizon_s=HORIZON_S, shared_fraction=0.3, **overrides)


def kwargs(seed, spec=None):
    return dict(n_hosts=8, horizon_s=HORIZON_S, seed=seed, fleet_spec=spec or fleet_spec())


#: Three policy variants, one of them on the decentralized plane.
VARIANTS = (
    ("S3-PM", s3_policy),
    ("S5-PM", s5_policy),
    ("S3-PM/neat", lambda: s3_policy().with_overrides(plane="neat")),
)


def sweep(checkpoint_dir):
    """2 seeds x 3 variants; the first spec is traced, the fifth checkpoints."""
    specs = [
        ScenarioSpec(make(), kwargs=kwargs(seed), label="{}@{}".format(name, seed))
        for seed in SEEDS
        for name, make in VARIANTS
    ]
    specs[0].kwargs["trace"] = True
    specs[4].kwargs.update(checkpoint_every_s=3600.0, checkpoint_dir=str(checkpoint_dir))
    return specs


def frozen(artifacts):
    """The artifacts' bytes after one pickle round trip.

    A pooled spec's artifacts cross the process boundary as a pickle, and
    an unpickled object can pickle to different bytes than the original
    (shared references are memoized differently).  One round trip on
    both sides compares values, not object identities.
    """
    return pickle.dumps(pickle.loads(pickle.dumps(artifacts)))


def checkpoint_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.fixture(scope="module")
def alone(tmp_path_factory):
    """Each spec of the sweep run on its own, without a store."""
    ckdir = tmp_path_factory.mktemp("alone-checkpoints")
    specs = sweep(ckdir)
    return [spec.run() for spec in specs], checkpoint_bytes(ckdir)


def count_builds(monkeypatch):
    """Record the ``(seed, n_vms)`` of every ``build_fleet`` call this process makes."""
    calls = []

    def counted(spec, seed=0, **kw):
        calls.append((seed, spec.n_vms))
        return build_fleet(spec, seed=seed, **kw)

    monkeypatch.setattr(runner, "build_fleet", counted)
    return calls


def record_stores(monkeypatch):
    """Every ``FleetStore`` a ``run_scenarios`` call in this process makes."""
    made = []

    class Recorded(runner.FleetStore):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(runner, "FleetStore", Recorded)
    return made


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_equals_each_spec_run_alone(workers, alone, tmp_path):
    artifacts, checkpoints = alone
    got = run_scenarios(sweep(tmp_path), workers=workers, cache=False)
    assert [frozen(a) for a in got] == [frozen(a) for a in artifacts]
    assert got[0].trace_jsonl is not None
    assert got[0].trace_jsonl == artifacts[0].trace_jsonl
    assert got[0].trace_hash == artifacts[0].trace_hash
    assert len(checkpoints) == 5
    assert checkpoint_bytes(tmp_path) == checkpoints


def test_serial_sweep_builds_once_per_consecutive_group(monkeypatch):
    calls = count_builds(monkeypatch)
    specs = [
        ScenarioSpec(make(), kwargs=kwargs(seed)) for seed in SEEDS for _, make in VARIANTS
    ]
    # Back to the first seed, on a larger cluster (a spec of its own, not
    # a duplicate): only the latest fleet is kept.
    specs.append(ScenarioSpec(s3_policy(), kwargs=dict(kwargs(SEEDS[0]), n_hosts=10)))
    run_scenarios(specs, workers=1, cache=False)
    assert calls == [(3, 24), (4, 24), (3, 24)]


def test_pristine_fleet_stays_unplaced(monkeypatch):
    stores = record_stores(monkeypatch)
    calls = count_builds(monkeypatch)
    specs = [ScenarioSpec(make(), kwargs=kwargs(SEEDS[0])) for _, make in VARIANTS]
    run_scenarios(specs, workers=1, cache=False)
    (store,) = stores
    pristine = store.fleet(fleet_spec(), SEEDS[0])
    assert len(calls) == 1  # the lookup above is a hit
    assert len(pristine) == 24
    for vm in pristine:
        assert vm.host is None
        assert not vm.migrating
        assert vm._lattice is None
        assert vm.migration_count == 0
        assert vm._demand_at_t is None


def test_fleets_that_differ_never_share_a_build(monkeypatch):
    weights = dict(fleet_spec().archetype_weights, flat=0.25)
    other = fleet_spec(archetype_weights=weights)
    cases = [(SEEDS[0], fleet_spec()), (SEEDS[1], fleet_spec()), (SEEDS[1], other)]
    specs = [ScenarioSpec(s3_policy(), kwargs=kwargs(seed, spec)) for seed, spec in cases]
    calls = count_builds(monkeypatch)
    got = run_scenarios(specs, workers=1, cache=False)
    assert calls == [(3, 24), (4, 24), (4, 24)]
    monkeypatch.undo()
    assert [frozen(a) for a in got] == [frozen(spec.run()) for spec in specs]


def test_a_spec_without_a_canonical_encoding_builds_fresh(monkeypatch):
    calls = count_builds(monkeypatch)
    spec = fleet_spec(vcpu_choices=range(1, 5))
    store = runner.FleetStore()
    first = store.fleet(spec, 5)
    second = store.fleet(spec, 5)
    assert len(calls) == 2
    assert first is not second
    assert [(vm.name, vm.vcpus, vm.trace.at(600.0)) for vm in first] == [
        (vm.name, vm.vcpus, vm.trace.at(600.0)) for vm in second
    ]
