"""ModuleContext derives each file once, pinned to the scans it replaced.

The context parses a file once, lists its nodes once, builds its import
map once, and finds its ``# reprolint:`` comments in one tokenize pass
that runs only when the text contains ``reprolint``.  Each field must
equal an independent reference, over every ``.py`` file under ``src``,
``benchmarks`` and ``tests`` (lint fixtures included) and over
hand-written sources aimed at the shortcut's edge cases.  The
references are the engine's former per-field scans, kept here verbatim:
two separate tokenize passes and a fresh walk for the import map.
"""

import ast
import re
import tokenize
from pathlib import Path

import pytest

from repro.tools.lint import ModuleContext

REPO_ROOT = Path(__file__).resolve().parents[1]

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>all|[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)
_HOT_RE = re.compile(r"#\s*reprolint:\s*hot\b")


def reference_suppressions(source):
    suppressions = {}
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            spec = match.group("rules")
            if spec == "all":
                rules = frozenset({"ALL"})
            else:
                rules = frozenset(r.strip().upper() for r in spec.split(","))
            line = token.start[0]
            suppressions[line] = suppressions.get(line, frozenset()) | rules
    except tokenize.TokenError:
        pass
    return suppressions


def reference_hot_lines(source):
    hot = []
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type == tokenize.COMMENT and _HOT_RE.search(token.string):
                hot.append(token.start[0])
    except tokenize.TokenError:
        pass
    return frozenset(hot)


def reference_imports(tree):
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = "{}.{}".format(node.module, alias.name)
    return aliases


def mismatches(path, source):
    """Names of the context fields that differ from their reference."""
    module = ModuleContext(path, source)
    checks = {
        "nodes": module.nodes == list(ast.walk(module.tree)),
        "imports": module.imports == reference_imports(module.tree),
        "suppressions": module.suppressions == reference_suppressions(source),
        "hot_lines": module.hot_lines == reference_hot_lines(source),
    }
    return [name for name, ok in checks.items() if not ok]


@pytest.mark.parametrize("tree", ["src", "benchmarks", "tests"])
def test_every_file_matches_the_reference_scans(tree):
    files = sorted((REPO_ROOT / tree).rglob("*.py"))
    assert files
    bad = {}
    for path in files:
        wrong = mismatches(path, path.read_text(encoding="utf-8"))
        if wrong:
            bad[str(path.relative_to(REPO_ROOT))] = wrong
    assert bad == {}


HAND_WRITTEN = {
    "marker in a string literal": (
        'MARK = "# reprolint: disable=RL004"\n'
        'HOT = "# reprolint: hot"\n'
        "x = 1  # reprolint: disable=RL001\n",
        {3: frozenset({"RL001"})},
        frozenset(),
    ),
    "hot marker without a space": (
        "def tick(rows):  #reprolint: hot\n"
        "    return rows\n",
        {},
        frozenset({1}),
    ),
    "disable all": (
        "x = 1  # reprolint: disable=all\n",
        {1: frozenset({"ALL"})},
        frozenset(),
    ),
    "rule list, lower case": (
        "x = 1  # reprolint: disable=RL001, rl004\n",
        {1: frozenset({"RL001", "RL004"})},
        frozenset(),
    ),
    "both markers in one comment": (
        "def tick(rows):  # reprolint: hot  # reprolint: disable=RL015\n"
        "    return sorted(rows)\n",
        {1: frozenset({"RL015"})},
        frozenset({1}),
    ),
    "only a docstring mentions reprolint": (
        '"""Explains # reprolint: disable=RL001 and # reprolint: hot."""\n'
        "x = 1\n",
        {},
        frozenset(),
    ),
    "no marker at all": (
        "import numpy as np\nx = np.zeros(3)  # a comment\n",
        {},
        frozenset(),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
def test_hand_written_sources(case):
    source, suppressions, hot_lines = HAND_WRITTEN[case]
    module = ModuleContext(Path("mod.py"), source)
    assert module.suppressions == suppressions
    assert module.hot_lines == hot_lines
    assert mismatches(Path("mod.py"), source) == []


def test_import_map_keeps_the_walk_order_binding():
    # A nested import of the same alias is visited after the module-level
    # one, so it wins, exactly as a fresh walk of the tree decides.
    source = (
        "import numpy as np\n"
        "def f():\n"
        "    import random as np\n"
        "    return np\n"
        "from time import time as now\n"
    )
    module = ModuleContext(Path("mod.py"), source)
    assert module.imports == {"np": "random", "now": "time.time"}
    assert mismatches(Path("mod.py"), source) == []


def test_unit_rules_share_one_scoped_walk(monkeypatch):
    """RL003 and RL004 read ``unit_operands``: one unit-scope walk per module."""
    from repro.tools.lint import units
    from repro.tools.lint.engine import lint_source
    from repro.tools.lint.rules import UnitEqualityRule, UnitMixRule

    walked = []
    real = units.iter_scoped_exprs

    def counting(body):
        walked.append(body)
        return real(body)

    monkeypatch.setattr(units, "iter_scoped_exprs", counting)
    source = "def f(a_w, b_j):\n    x = a_w + b_j\n    return x == a_w\n"
    for name in ("m.py", "n.py"):
        findings, module = lint_source(
            Path("lib") / name, source, [UnitMixRule(), UnitEqualityRule()]
        )
        assert [f.rule for f in findings] == ["RL003", "RL004"]
        assert walked[-1] is module.tree.body
    assert len(walked) == 2
