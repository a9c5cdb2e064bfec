"""Public-API surface tests: every documented entry point imports and works."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.sim",
            "repro.power",
            "repro.prototype",
            "repro.datacenter",
            "repro.workload",
            "repro.migration",
            "repro.placement",
            "repro.core",
            "repro.telemetry",
            "repro.analysis",
            "repro.cli",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), "{}.{}".format(module, name)

    def test_readme_quickstart_snippet(self):
        # The exact flow from README.md must keep working.
        from repro import always_on, run_scenario, s3_policy

        base = run_scenario(
            always_on(), n_hosts=4, n_vms=8, horizon_s=3600, seed=1
        )
        pm = run_scenario(s3_policy(), n_hosts=4, n_vms=8, horizon_s=3600, seed=1)
        assert base.report.energy_kwh > 0
        assert pm.report.energy_kwh > 0

    def test_module_docstrings_present(self):
        for module in (
            "repro",
            "repro.sim",
            "repro.power",
            "repro.core",
            "repro.core.plane",
            "repro.prototype.calibration",
        ):
            assert importlib.import_module(module).__doc__

    def test_cli_module_entry(self):
        from repro.cli import main

        assert main(["policies"]) == 0
