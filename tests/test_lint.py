"""Tests for reprolint: the engine, every rule, the CLI, and HEAD cleanliness.

The per-rule fixtures live in ``tests/lint_fixtures/``.  Each bad fixture
marks every line that must be flagged with a ``# finding`` comment, so the
expected line set is read from the fixture itself — adding a case to a
fixture automatically extends the assertion.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.tools.lint import (
    Finding,
    LintReport,
    lint_file,
    lint_paths,
)
from repro.tools.lint.engine import iter_python_files
from repro.tools.lint.rules import (
    ALL_RULES,
    RULES_BY_ID,
    default_rules,
    registry,
    rules_for_ids,
)
from repro.tools.lint.units import unit_of_identifier

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: rule id -> bad fixture path (relative to FIXTURES).  RL002 fixtures sit
#: under ``sim/`` because the rule is package-scoped.
BAD_FIXTURES = {
    "RL001": "rl001_bad.py",
    "RL002": "sim/rl002_bad.py",
    "RL003": "rl003_bad.py",
    "RL004": "rl004_bad.py",
    "RL006": "rl006_bad.py",
    "RL007": "rl007_bad.py",
    "RL008": "rl008_bad.py",
    "RL009": "rl009_bad.py",
    "RL010": "rl010_bad.py",
    "RL011": "rl011_bad.py",
    "RL015": "rl015_bad.py",
    "RL016": "benchmarks/rl016_bad.py",
}

GOOD_FIXTURES = {
    rule_id: rel.replace("_bad.py", "_good.py")
    for rule_id, rel in BAD_FIXTURES.items()
}


def expected_lines(path: Path) -> set:
    """Line numbers carrying a ``# finding`` marker comment."""
    return {
        lineno
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "# finding" in line
    }


class TestRegistry:
    def test_all_module_rules_registered(self):
        assert len(ALL_RULES) == 12
        assert sorted(RULES_BY_ID) == [
            "RL001", "RL002", "RL003", "RL004",
            "RL006", "RL007", "RL008", "RL009", "RL010",
            "RL011", "RL015", "RL016",
        ]

    def test_combined_registry_includes_project_rules(self):
        assert sorted(registry()) == [
            "RL001", "RL002", "RL003", "RL004",
            "RL006", "RL007", "RL008", "RL009", "RL010",
            "RL011", "RL012", "RL013", "RL014", "RL015",
            "RL016",
        ]

    def test_rules_have_metadata(self):
        for rule_cls in registry().values():
            assert rule_cls.title, rule_cls.rule_id
            assert rule_cls.rationale, rule_cls.rule_id

    def test_default_rules_sorted_by_id(self):
        ids = [r.rule_id for r in default_rules()]
        assert ids == sorted(ids)

    def test_rules_for_ids_selects_subset(self):
        rules = rules_for_ids(["RL006", "RL001"])
        assert sorted(r.rule_id for r in rules) == ["RL001", "RL006"]

    def test_rules_for_ids_rejects_unknown(self):
        with pytest.raises(ValueError, match="RL999"):
            rules_for_ids(["RL001", "RL999"])


class TestFixtures:
    """Every rule fires on its bad fixture, exactly on the marked lines."""

    @pytest.mark.parametrize("rule_id", sorted(BAD_FIXTURES))
    def test_bad_fixture_flagged_on_marked_lines(self, rule_id):
        path = FIXTURES / BAD_FIXTURES[rule_id]
        findings = lint_file(path, rules_for_ids([rule_id]))
        assert findings, "{} produced no findings on {}".format(rule_id, path)
        assert all(f.rule == rule_id for f in findings)
        assert {f.line for f in findings} == expected_lines(path)

    @pytest.mark.parametrize("rule_id", sorted(GOOD_FIXTURES))
    def test_good_fixture_clean_under_all_rules(self, rule_id):
        path = FIXTURES / GOOD_FIXTURES[rule_id]
        findings = lint_file(path, default_rules())
        assert findings == [], [f.render() for f in findings]

    def test_rl002_out_of_scope_outside_sim_packages(self, tmp_path):
        # The same wall-clock source is ignored when the module does not
        # live under a simulation package...
        source = (FIXTURES / "sim/rl002_bad.py").read_text()
        plain = tmp_path / "helper.py"
        plain.write_text(source)
        assert lint_file(plain, rules_for_ids(["RL002"])) == []
        # ...and flagged when it does.
        (tmp_path / "core").mkdir()
        scoped = tmp_path / "core" / "helper.py"
        scoped.write_text(source)
        assert lint_file(scoped, rules_for_ids(["RL002"]))

    def test_rl007_skips_test_files(self, tmp_path):
        source = (FIXTURES / "rl007_bad.py").read_text()
        test_file = tmp_path / "test_place.py"
        test_file.write_text(source)
        assert lint_file(test_file, rules_for_ids(["RL007"])) == []

    def test_rl010_exempts_engine_manager_and_tests(self, tmp_path):
        # The engine owns the call; the manager hosts the retry wrapper...
        engine = REPO_ROOT / "src" / "repro" / "migration" / "engine.py"
        manager = REPO_ROOT / "src" / "repro" / "core" / "plane" / "arbiter.py"
        assert lint_file(engine, rules_for_ids(["RL010"])) == []
        assert lint_file(manager, rules_for_ids(["RL010"])) == []
        # ...and tests drive the engine directly to exercise edge cases.
        source = (FIXTURES / "rl010_bad.py").read_text()
        test_file = tmp_path / "test_moves.py"
        test_file.write_text(source)
        assert lint_file(test_file, rules_for_ids(["RL010"])) == []

    def test_rl011_skips_test_files_and_manager_is_clean(self, tmp_path):
        # The live manager's hot paths read the index views — no findings
        # (and no suppressions needed outside deliberate reconciliation).
        manager = REPO_ROOT / "src" / "repro" / "core" / "plane" / "arbiter.py"
        assert lint_file(manager, rules_for_ids(["RL011"])) == []
        # Tests drive evaluate()/react_to_shortfall() on toy clusters.
        source = (FIXTURES / "rl011_bad.py").read_text()
        test_file = tmp_path / "test_manager.py"
        test_file.write_text(source)
        assert lint_file(test_file, rules_for_ids(["RL011"])) == []

    def test_rl009_exempts_the_machine_module_and_tests(self, tmp_path):
        # The machine module owns the attributes the rule polices...
        machine = REPO_ROOT / "src" / "repro" / "power" / "machine.py"
        assert lint_file(machine, rules_for_ids(["RL009"])) == []
        # ...and test files may force states to exercise error paths.
        source = (FIXTURES / "rl009_bad.py").read_text()
        test_file = tmp_path / "test_force.py"
        test_file.write_text(source)
        assert lint_file(test_file, rules_for_ids(["RL009"])) == []


class TestSuppressions:
    def test_line_suppression_silences_named_rule(self, tmp_path):
        scoped = tmp_path / "sim"
        scoped.mkdir()
        target = scoped / "mod.py"
        target.write_text(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # reprolint: disable=RL002\n"
        )
        assert lint_file(target, rules_for_ids(["RL002"])) == []

    def test_disable_all_silences_every_rule(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def schedule(events=[]):  # reprolint: disable=all\n"
            "    assert events  # reprolint: disable=all\n"
            "    return events\n"
        )
        assert lint_file(path, default_rules()) == []

    def test_suppression_only_covers_its_line(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def a(power_w):\n"
            "    return power_w == 0.0  # reprolint: disable=RL004\n"
            "\n"
            "def b(power_w):\n"
            "    return power_w == 0.0\n"
        )
        findings = lint_file(path, rules_for_ids(["RL004"]))
        assert [f.line for f in findings] == [5]

    def test_hash_inside_string_is_not_a_suppression(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            'MARK = "# reprolint: disable=RL004"\n'
            "def a(power_w):\n"
            "    return power_w == 0.0\n"
        )
        findings = lint_file(path, rules_for_ids(["RL004"]))
        assert [f.line for f in findings] == [3]

    def test_suppression_on_any_line_of_multiline_statement(self, tmp_path):
        # The flagged node starts on line 5 but the trailing comment sits
        # on the statement's *last* physical line — `end_lineno` span.
        path = tmp_path / "mod.py"
        path.write_text(
            "import numpy as np\n"
            "\n"
            "\n"
            "def draw(n):\n"
            "    return np.random.randint(\n"
            "        0, 10, size=n,\n"
            "    )  # reprolint: disable=RL001\n"
        )
        assert lint_file(path, rules_for_ids(["RL001"])) == []
        # Control: without the comment the same statement is flagged.
        path.write_text(
            "import numpy as np\n"
            "\n"
            "\n"
            "def draw(n):\n"
            "    return np.random.randint(\n"
            "        0, 10, size=n,\n"
            "    )\n"
        )
        findings = lint_file(path, rules_for_ids(["RL001"]))
        assert [f.line for f in findings] == [5]


class TestEngine:
    def test_syntax_error_becomes_rl000_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        findings = lint_file(path, default_rules())
        assert len(findings) == 1
        assert findings[0].rule == "RL000"
        assert "syntax error" in findings[0].message

    def test_iter_python_files_skips_caches_and_dedups(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-39.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path, tmp_path / "a.py"])
        assert files == [tmp_path / "a.py"]

    def test_checkout_under_a_dot_directory_is_linted(self, tmp_path):
        # Only the components below the directory argument are filtered:
        # a tree under ``.hidden`` lints, a ``.cache`` inside it does not.
        tree = tmp_path / ".hidden" / "tree"
        (tree / ".cache").mkdir(parents=True)
        shutil.copy(FIXTURES / "rl004_bad.py", tree / "rl004_bad.py")
        shutil.copy(FIXTURES / "rl004_bad.py", tree / ".cache" / "rl004_bad.py")
        report = lint_paths([tree.resolve()], rules=rules_for_ids(["RL004"]))
        assert report.files_checked == 1
        assert {f.line for f in report.findings} == expected_lines(
            FIXTURES / "rl004_bad.py"
        )

    def test_exclude_name_above_the_directory_argument_excludes_nothing(self):
        files = iter_python_files([FIXTURES], exclude=("lint_fixtures",))
        assert files
        assert files == iter_python_files([FIXTURES])

    def test_report_json_roundtrip(self):
        report = LintReport(
            findings=[Finding("RL001", "msg", "a.py", 3, 1)],
            files_checked=2,
        )
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        assert payload["files_checked"] == 2
        assert payload["findings"][0]["rule"] == "RL001"

    def test_findings_sorted_by_location(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def b(ys=[]):\n"
            "    assert ys\n"
            "    return ys\n"
        )
        findings = lint_file(path, default_rules())
        assert [f.sort_key() for f in findings] == sorted(
            f.sort_key() for f in findings
        )


class TestUnits:
    @pytest.mark.parametrize(
        "name,unit",
        [
            ("power_w", "w"),
            ("energy_j", "j"),
            ("horizon_s", "s"),
            ("mem_gb", "gb"),
            ("util_pct", "pct"),
            ("count", None),
            ("w", None),  # no underscore: not a suffixed quantity
        ],
    )
    def test_unit_of_identifier(self, name, unit):
        assert unit_of_identifier(name) == unit


class TestCli:
    def test_lint_clean_path_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "rl001_good.py")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_bad_path_exits_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES / "rl004_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RL004" in out

    @pytest.mark.parametrize("rule_id", sorted(BAD_FIXTURES))
    def test_every_bad_fixture_fails_via_cli(self, rule_id, capsys):
        code = main(["lint", str(FIXTURES / BAD_FIXTURES[rule_id])])
        capsys.readouterr()
        assert code == 1

    def test_json_format(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "rl007_bad.py"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert {f["rule"] for f in payload["findings"]} == {"RL007"}

    def test_rules_filter(self, capsys):
        # rl001_bad also trips nothing else, so filtering to RL004 is clean.
        code = main(
            ["lint", str(FIXTURES / "rl001_bad.py"), "--rules", "RL004"]
        )
        capsys.readouterr()
        assert code == 0

    def test_unknown_rule_is_usage_error(self, capsys):
        code = main(["lint", "--rules", "RL999", str(FIXTURES)])
        capsys.readouterr()
        assert code == 2

    def test_missing_path_is_usage_error(self, capsys):
        code = main(["lint", "no/such/path.py"])
        capsys.readouterr()
        assert code == 2

    def test_directory_without_python_files_is_usage_error(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path)])
        assert code == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(BAD_FIXTURES):
            assert rule_id in out


class TestHeadClean:
    """The shipped tree must satisfy its own invariants."""

    def test_src_and_benchmarks_are_lint_clean(self):
        # Every registered rule, module and project, over every file: a
        # run that silently skips files must not pass.
        trees = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]
        report = lint_paths(trees)
        assert report.ok, "\n" + report.render_text()
        assert report.files_checked == sum(
            len(list(tree.rglob("*.py"))) for tree in trees
        )

    def test_examples_and_tests_are_lint_clean(self):
        # Part of the CI lint scope since the project-wide pass; fixtures
        # are excluded (they exist to be dirty).
        report = lint_paths(
            [REPO_ROOT / "examples", REPO_ROOT / "tests"],
            exclude=("lint_fixtures",),
        )
        assert report.ok, "\n" + report.render_text()

    def test_lint_paths_emits_repo_relative_display_paths(self):
        # Absolute input paths must still render repo-relative findings,
        # so baselines and CI annotations are stable across machines.
        report = lint_paths([REPO_ROOT / "src" / "repro" / "core"])
        # Clean tree: check the property on a deliberately dirty file.
        dirty = lint_paths([FIXTURES / "rl004_bad.py"])
        assert dirty.findings
        for finding in dirty.findings:
            assert not finding.path.startswith("/"), finding.path
            assert finding.path == "tests/lint_fixtures/rl004_bad.py"
        assert report.files_checked > 5


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean_at_head():
    proc = subprocess.run(
        ["ruff", "check", "src", "benchmarks", "tests", "examples"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_core_and_datacenter_at_head():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "-p", "repro.core", "-p", "repro.datacenter"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
