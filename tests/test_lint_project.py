"""Tests for the project-wide lint pass (RL012-RL014), SARIF output,
and the seeded-mutation guarantees.

RL013 fixtures are linted one file at a time: the registry lookup takes
the first module (in path order) that defines ``EVENT_COVERAGE`` /
``EXTRA_FIELDS``, so sweeping the bad and good fixtures together would
cross-contaminate their registries.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

from repro.tools.lint import lint_paths, registry
from repro.tools.lint.project_rules import (
    MemoInvalidationRule,
    RngStreamProvenanceRule,
    TraceCoverageRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = REPO_ROOT / "src"


def marked_lines(path: Path) -> list:
    """Line numbers carrying a ``# finding`` marker in a fixture."""
    lines = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        if "# finding" in text:
            lines.append(lineno)
    return lines


def run(paths, rules):
    return lint_paths(paths, rules=rules)


class TestRl012Fixtures:
    def test_bad_tree_matches_markers(self):
        root = FIXTURES / "proj_rl012_bad"
        report = run([root], [RngStreamProvenanceRule()])
        got = sorted((Path(f.path).name, f.line) for f in report.findings)
        want = []
        for path in sorted(root.rglob("*.py")):
            want.extend((path.name, line) for line in marked_lines(path))
        assert got == sorted(want)
        assert {f.rule for f in report.findings} == {"RL012"}

    def test_good_tree_is_clean(self):
        report = run([FIXTURES / "proj_rl012_good"], [RngStreamProvenanceRule()])
        assert report.findings == []

    def test_shared_label_names_both_modules(self):
        report = run([FIXTURES / "proj_rl012_bad"], [RngStreamProvenanceRule()])
        shared = [f for f in report.findings if "jitter" in f.message]
        assert shared, report.render_text()
        assert all("streams_a.py" in f.message for f in shared)


class TestRl013Fixtures:
    def test_bad_file_matches_markers(self):
        path = FIXTURES / "sim" / "rl013_bad.py"
        report = run([path], [TraceCoverageRule()])
        assert sorted(f.line for f in report.findings) == marked_lines(path)
        assert {f.rule for f in report.findings} == {"RL013"}

    def test_good_file_is_clean(self):
        report = run([FIXTURES / "sim" / "rl013_good.py"], [TraceCoverageRule()])
        assert report.findings == []


class TestRl014Fixtures:
    def test_bad_file_matches_markers(self):
        path = FIXTURES / "sim" / "rl014_bad.py"
        report = run([path], [MemoInvalidationRule()])
        assert sorted(f.line for f in report.findings) == marked_lines(path)
        messages = " / ".join(f.message for f in report.findings)
        assert "without bumping" in messages
        assert "conditional" in messages

    def test_good_file_is_clean(self):
        report = run([FIXTURES / "sim" / "rl014_good.py"], [MemoInvalidationRule()])
        assert report.findings == []


class TestBaselineAndFormats:
    def test_sarif_output_parses_and_matches(self):
        report = lint_paths([FIXTURES / "rl004_bad.py"])
        rules = [cls() for cls in registry().values()]
        doc = json.loads(report.render_sarif(rules))
        assert doc["version"] == "2.1.0"
        run_ = doc["runs"][0]
        assert len(run_["results"]) == len(report.findings)
        ids = {r["id"] for r in run_["tool"]["driver"]["rules"]}
        assert ids == set(registry())


class TestMutationDetection:
    """The acceptance-criteria mutation tests: prove the project rules
    catch real regressions in the shipped tree, statically."""

    def _rng_tree(self, tmp_path: Path) -> Path:
        tree = tmp_path / "proj"
        (tree / "datacenter").mkdir(parents=True)
        (tree / "telemetry").mkdir()
        shutil.copy(
            SRC / "repro" / "datacenter" / "faults.py",
            tree / "datacenter" / "faults.py",
        )
        shutil.copy(
            SRC / "repro" / "telemetry" / "sampler.py",
            tree / "telemetry" / "sampler.py",
        )
        return tree

    def test_rl012_catches_shared_stream_mutation(self, tmp_path):
        tree = self._rng_tree(tmp_path)
        clean = lint_paths([tree], rules=[RngStreamProvenanceRule()])
        assert clean.findings == [], clean.render_text()

        faults = tree / "datacenter" / "faults.py"
        mutated = faults.read_text().replace('"repair"', '"telemetry"')
        assert mutated != faults.read_text()
        faults.write_text(mutated)

        dirty = lint_paths([tree], rules=[RngStreamProvenanceRule()])
        shared = [
            f
            for f in dirty.findings
            if f.rule == "RL012" and "telemetry" in f.message
        ]
        assert shared, dirty.render_text()

    def test_rl014_catches_removed_epoch_bump(self, tmp_path):
        tree = tmp_path / "proj"
        (tree / "datacenter").mkdir(parents=True)
        host = tree / "datacenter" / "host.py"
        shutil.copy(SRC / "repro" / "datacenter" / "host.py", host)

        clean = lint_paths([tree], rules=[MemoInvalidationRule()])
        assert clean.findings == [], clean.render_text()

        # Drop the bump in place(); remove() still bumps, so the shared
        # fields stay epoch-protected and the unbumped write must flag.
        lines = host.read_text().splitlines(keepends=True)
        bumps = [
            i
            for i, line in enumerate(lines)
            if line.strip() == "self._demand_epoch += 1"
        ]
        assert len(bumps) >= 2
        indent = lines[bumps[1]][: len(lines[bumps[1]]) - len(lines[bumps[1]].lstrip())]
        lines[bumps[1]] = indent + "pass\n"
        host.write_text("".join(lines))

        dirty = lint_paths([tree], rules=[MemoInvalidationRule()])
        hits = [
            f
            for f in dirty.findings
            if f.rule == "RL014" and "_demand_epoch" in f.message
        ]
        assert hits, dirty.render_text()


class TestDocsDrift:
    def test_readme_rule_table_matches_registry(self):
        text = (REPO_ROOT / "README.md").read_text()
        match = re.search(
            r"<!-- reprolint-rules:begin.*?-->\n(.*?)<!-- reprolint-rules:end -->",
            text,
            re.DOTALL,
        )
        assert match, "README is missing the generated reprolint rule table"
        rows = {}
        for line in match.group(1).splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0].startswith("RL"):
                rows[cells[0]] = cells[1]
        expected = {rid: cls.title for rid, cls in registry().items()}
        assert rows == expected

    def test_design_table_mentions_every_rule(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for rule_id in registry():
            assert "| {} |".format(rule_id) in text, rule_id
