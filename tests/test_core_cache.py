"""Tests for the scenario result cache (repro.core.cache)."""

import shutil

import pytest

from repro.core import ScenarioSpec, s3_policy, s5_policy
from repro.core.cache import (
    ResultCache,
    Uncacheable,
    canonical,
    scenario_digest,
)
from repro.datacenter import FaultModel
from repro.power.states import PowerState
from repro.prototype import make_prototype_blade_profile
from repro.workload import FleetSpec


class OpaqueTrace:
    """A trace carrying live RNG state: runnable but not canonicalizable."""

    def __init__(self):
        import numpy as np

        self.rng = np.random.default_rng(1)

    def at(self, t):
        return 0.5


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(3) == 3
        assert canonical(2.5) == 2.5
        assert canonical("x") == "x"
        assert canonical(None) is None
        assert canonical(True) is True

    def test_enum_and_containers(self):
        enc = canonical({"state": PowerState.SLEEP, "xs": (1, 2)})
        assert enc["__dict__"]["xs"] == [1, 2]
        assert enc["__dict__"]["state"]["name"] == "SLEEP"

    def test_dataclass_fields_are_captured(self):
        a = canonical(FleetSpec(n_vms=10))
        b = canonical(FleetSpec(n_vms=11))
        assert a != b
        assert a["fields"]["n_vms"] == 10

    def test_numpy_scalars(self):
        import numpy as np

        assert canonical(np.float64(1.5)) == 1.5
        assert canonical(np.int64(4)) == 4

    def test_power_profile_is_canonical(self):
        profile = make_prototype_blade_profile()
        assert canonical(profile) == canonical(make_prototype_blade_profile())
        slow = make_prototype_blade_profile(resume_latency_s=60.0)
        assert canonical(profile) != canonical(slow)

    def test_unencodable_raises(self):
        with pytest.raises(Uncacheable):
            canonical(lambda: None)
        with pytest.raises(Uncacheable):
            canonical(object())


class TestScenarioDigest:
    def test_stable_across_equal_configs(self):
        kw = dict(n_hosts=4, seed=1, fleet_spec=FleetSpec(n_vms=8))
        assert scenario_digest(s3_policy(), kw) == scenario_digest(
            s3_policy(), dict(kw)
        )

    def test_sensitive_to_policy_and_kwargs(self):
        kw = dict(n_hosts=4, seed=1)
        base = scenario_digest(s3_policy(), kw)
        assert scenario_digest(s5_policy(), kw) != base
        assert scenario_digest(s3_policy(), dict(kw, seed=2)) != base
        assert scenario_digest(
            s3_policy(), dict(kw, fault_model=FaultModel(wake_failure_rate=0.1))
        ) != base

    def test_sensitive_to_package_version(self, monkeypatch):
        import repro

        kw = dict(n_hosts=4, seed=1)
        before = scenario_digest(s3_policy(), kw)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert scenario_digest(s3_policy(), kw) != before

    def test_sensitive_to_package_source(self, monkeypatch, tmp_path):
        # A copy of the package stands in for it; one changed byte in one
        # module changes every key, and restoring the byte restores it.
        from repro.core import cache as cache_module

        root = tmp_path / "repro"
        shutil.copytree(
            cache_module._PACKAGE_ROOT,
            root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.setattr(cache_module, "_PACKAGE_ROOT", root)
        kw = dict(n_hosts=4, seed=1)
        before = scenario_digest(s3_policy(), kw)
        module = root / "core" / "plane" / "observer.py"
        original = module.read_bytes()
        mutated = original.replace(
            b"UNDERLOAD_THRESHOLD = 0.3", b"UNDERLOAD_THRESHOLD = 0.4"
        )
        assert mutated != original
        module.write_bytes(mutated)
        cache_module._source_sha256.cache_clear()
        assert scenario_digest(s3_policy(), kw) != before
        module.write_bytes(original)
        cache_module._source_sha256.cache_clear()
        assert scenario_digest(s3_policy(), kw) == before

    def test_source_is_read_once_and_stable(self):
        from repro.core import cache as cache_module

        cache_module._source_sha256.cache_clear()
        kw = dict(n_hosts=4, seed=1)
        first = scenario_digest(s3_policy(), kw)
        assert scenario_digest(s3_policy(), kw) == first
        assert ScenarioSpec(s3_policy(), kwargs=kw).digest() == first
        info = cache_module._source_sha256.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_generated_fleet_is_cacheable(self):
        """build_fleet VMs are pure value objects — they hash cleanly."""
        from repro.workload.fleet import build_fleet

        fleet = build_fleet(FleetSpec(n_vms=2), seed=0)
        spec = ScenarioSpec(s3_policy(), kwargs=dict(fleet=fleet))
        assert spec.digest() == spec.digest()

    def test_vm_demand_memo_does_not_change_digest(self):
        """Runtime memo state is excluded via __cache_ignore__."""
        from repro.workload.fleet import build_fleet

        fresh = build_fleet(FleetSpec(n_vms=2), seed=0)
        used = build_fleet(FleetSpec(n_vms=2), seed=0)
        for vm in used:
            vm.demand_cores(120.0)
        assert canonical(fresh) == canonical(used)

    def test_spec_digest_raises_for_live_objects(self):
        from repro.workload.fleet import build_fleet

        fleet = build_fleet(FleetSpec(n_vms=2), seed=0)
        fleet[0].trace = OpaqueTrace()
        spec = ScenarioSpec(s3_policy(), kwargs=dict(fleet=fleet))
        with pytest.raises(Uncacheable):
            spec.digest()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 8, {"value": 42})
        assert cache.get("k" * 8) == {"value": 42}
        assert cache.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_disk_persistence(self, tmp_path):
        ResultCache(tmp_path).put("abc", [1, 2, 3])
        assert ResultCache(tmp_path).get("abc") == [1, 2, 3]

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert list(cache.entries()) == []
        assert ResultCache(tmp_path).get("a") is None

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("broken", {"x": 1})
        path = list(cache.entries())[0]
        path.write_bytes(b"\x80not a pickle")
        assert ResultCache(tmp_path).get("broken") is None

    def test_size_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.size_bytes() == 0
        cache.put("a", list(range(100)))
        assert cache.size_bytes() > 0

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = ResultCache()
        assert cache.root == tmp_path / "elsewhere"
