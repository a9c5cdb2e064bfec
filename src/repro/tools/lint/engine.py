"""The reprolint engine: file walking, parsing, suppression, reporting.

The engine is deliberately small.  A :class:`Rule` sees one fully parsed
module at a time (as a :class:`ModuleContext`) and yields
:class:`Finding` objects; everything else — collecting the file set,
honouring ``# reprolint: disable=...`` comments, ordering output,
rendering text or JSON — lives here, so a new rule is ~30 lines of AST
visiting and nothing more.

:class:`ModuleContext` is the one place a file is derived.  It parses
the source once, lists the tree's nodes once (in :func:`ast.walk`
order), builds the import map once, and finds the ``# reprolint:``
comments in one :mod:`tokenize` pass; rules and the project pass read
those fields instead of walking or tokenizing the file again.

Suppression syntax (per physical line)::

    power_w = power_w + energy_j  # reprolint: disable=RL003
    noisy_call()                  # reprolint: disable=RL001,RL002
    anything_at_all()             # reprolint: disable=all

A suppression silences findings whose flagged node *spans* that physical
line, so a trailing comment on any line of a wrapped multi-line call
works.

A second marker registers a function with the kernel-hot registry that
RL011/RL015 police::

    def sample_once(self) -> float:  # reprolint: hot
"""

from __future__ import annotations

import ast
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.tools.lint.units import UnitOperands, unit_operands

#: Pseudo rule id used for files the engine cannot parse.
PARSE_ERROR_RULE = "RL000"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>all|[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

_HOT_RE = re.compile(r"#\s*reprolint:\s*hot\b")

#: File name patterns treated as test code (rules may opt out of them).
_TEST_FILE_RE = re.compile(r"^(test_.*|.*_test|conftest)\.py$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int = 0
    #: Last physical line of the flagged node (suppression span); not part
    #: of the serialized/rendered form.
    end_line: int = field(default=0, compare=False)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }

    def render(self) -> str:
        return "{}:{}:{}: {} {}".format(
            self.path, self.line, self.col, self.rule, self.message
        )


class ModuleContext:
    """One parsed module: everything a rule may want to know about it.

    ``path`` is the module's path as package-scoped rules read it (see
    :func:`scope_path`; the source is read by the caller).  ``nodes``
    lists every node of ``tree`` in :func:`ast.walk` order, ``imports``
    maps each local alias to its canonical dotted name, and
    ``suppressions``/``hot_lines`` hold the ``# reprolint:`` comments.
    """

    def __init__(self, path: Path, source: str, display_path: Optional[str] = None) -> None:
        self.path = path
        self.display_path = display_path if display_path is not None else str(path)
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.nodes: List[ast.AST] = list(ast.walk(self.tree))
        self.imports: Dict[str, str] = _import_map(self.nodes)
        self.suppressions: Dict[int, FrozenSet[str]] = {}
        self.hot_lines: FrozenSet[int] = frozenset()
        # Every marker comment contains the word, so a file without it
        # needs no tokenize pass.
        if "reprolint" in source:
            self.suppressions, self.hot_lines = _scan_comments(source)
        #: Path components, used by package-scoped rules (e.g. RL002 only
        #: polices ``sim``/``core``/``datacenter``/``power``).
        self.package_parts: Tuple[str, ...] = path.parts
        self.is_test_file: bool = bool(_TEST_FILE_RE.match(path.name))
        self._unit_operands: Optional[List[UnitOperands]] = None

    @property
    def unit_operands(self) -> List[UnitOperands]:
        """The module's ``+``/``-`` and comparison nodes with their operands'
        units (see :func:`~repro.tools.lint.units.unit_operands`), derived on
        first use by one scoped walk."""
        if self._unit_operands is None:
            self._unit_operands = unit_operands(self.tree.body)
        return self._unit_operands

    def in_packages(self, packages: Sequence[str]) -> bool:
        return any(part in packages for part in self.package_parts)

    def is_hot(self, func: ast.AST) -> bool:
        """True when ``func`` carries a ``# reprolint: hot`` marker.

        The marker may sit on any physical line of the signature (def
        line through the line before the first body statement) or on the
        line directly above the ``def`` / first decorator.
        """
        first = getattr(func, "lineno", 0)
        decorators = getattr(func, "decorator_list", [])
        if decorators:
            first = min(first, decorators[0].lineno)
        body = getattr(func, "body", None)
        last = body[0].lineno - 1 if body else first
        return any(
            line in self.hot_lines for line in range(first - 1, last + 1)
        )

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            message=message,
            path=self.display_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            end_line=getattr(node, "end_lineno", None) or line,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        return suppressed(self.suppressions, finding)


def suppressed(suppressions: Dict[int, FrozenSet[str]], finding: Finding) -> bool:
    """True when any physical line the finding spans suppresses it.

    The span runs from the flagged node's first line to its
    ``end_lineno``, so a trailing ``# reprolint: disable=...`` on any
    line of a wrapped multi-line statement takes effect.
    """
    last = max(finding.line, finding.end_line)
    for line in range(finding.line, last + 1):
        rules = suppressions.get(line)
        if rules is not None and ("ALL" in rules or finding.rule.upper() in rules):
            return True
    return False


def _import_map(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Local alias -> canonical dotted path, for every import in ``nodes``.

    ``import numpy as np``            -> ``np: numpy``
    ``from numpy import random``      -> ``random: numpy.random``
    ``from time import time as now``  -> ``now: time.time``
    """
    aliases: Dict[str, str] = {}
    for node in nodes:
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


def _scan_comments(source: str) -> Tuple[Dict[int, FrozenSet[str]], FrozenSet[int]]:
    """The suppression map and the hot-marker lines, in one tokenize pass.

    The map sends a line number to the rule ids disabled there (``ALL``
    = every rule).  Comments are located with :mod:`tokenize` so a ``#``
    inside a string literal never counts.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    hot: List[int] = []
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type != tokenize.COMMENT:
                continue
            line = token.start[0]
            match = _SUPPRESS_RE.search(token.string)
            if match is not None:
                spec = match.group("rules")
                if spec == "all":
                    rules = frozenset({"ALL"})
                else:
                    rules = frozenset(r.strip().upper() for r in spec.split(","))
                suppressions[line] = suppressions.get(line, frozenset()) | rules
            if _HOT_RE.search(token.string):
                hot.append(line)
    except tokenize.TokenError:
        # Unterminated string etc. — ast.parse will produce the real error.
        pass
    return suppressions, frozenset(hot)


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one module.  Set ``scoped_packages`` to limit a
    rule to modules whose path crosses one of those package directories,
    and ``skip_test_files`` for rules that do not apply to pytest code
    (e.g. RL007 — ``assert`` is the *point* of a test).
    """

    rule_id: str = "RL999"
    title: str = ""
    rationale: str = ""
    scoped_packages: Optional[Tuple[str, ...]] = None
    skip_test_files: bool = False

    def applies_to(self, module: ModuleContext) -> bool:
        if self.skip_test_files and module.is_test_file:
            return False
        if self.scoped_packages is not None and not module.in_packages(
            self.scoped_packages
        ):
            return False
        return True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


def scope_path(path: Path, directory: Optional[Path] = None) -> Path:
    """The path of a linted file that package-scoped rules read.

    A file found under a directory argument is scoped by that
    directory's name and the path below it; a file argument by its path
    below the working directory, or its whole path when it lies
    elsewhere.  The directories a tree sits in never put its modules in
    a scoped package (RL002's ``sim``, RL016's ``benchmarks``), so a
    tree linted by relative or by absolute path gives the same findings.
    """
    if directory is not None:
        return Path(directory.name, path.relative_to(directory))
    try:
        return path.resolve().relative_to(Path.cwd().resolve())
    except ValueError:  # not below the working directory
        return path


def python_files(
    paths: Iterable[Path], exclude: Sequence[str] = ()
) -> List[Tuple[Path, Path]]:
    """Each file :func:`iter_python_files` lists, with its :func:`scope_path`."""
    files: List[Tuple[Path, Path]] = []
    for path in paths:
        if path.is_dir():
            found = [
                (p, scope_path(p, path))
                for p in sorted(path.rglob("*.py"))
                if not any(
                    part == "__pycache__" or part.startswith(".") or part in exclude
                    for part in p.relative_to(path).parts
                )
            ]
            if not found:
                raise FileNotFoundError("no python files under {}".format(path))
            files.extend(found)
        elif path.suffix == ".py":
            files.append((path, scope_path(path)))
        else:
            raise FileNotFoundError(
                "not a python file or directory: {}".format(path)
            )
    # De-duplicate on the file itself, however it was named, keeping the
    # sorted order per input path.
    seen = set()
    unique: List[Tuple[Path, Path]] = []
    for f, scope in files:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            unique.append((f, scope))
    return unique


def iter_python_files(
    paths: Iterable[Path], exclude: Sequence[str] = ()
) -> List[Path]:
    """Expand files/directories into a stable, sorted list of ``.py`` files.

    Below a directory argument, a file is skipped when a component of its
    path under that directory is ``__pycache__``, starts with ``.``, or is
    named in ``exclude`` (e.g. ``("lint_fixtures",)`` so fixture trees —
    which exist to be dirty — never pollute a directory sweep).  The
    directory's own path is not filtered, so a checkout under a
    dot-directory lints like any other.  A directory that yields no file
    raises FileNotFoundError, as does an argument that is neither a
    directory nor a ``.py`` file.  Files named explicitly are always
    linted, and a file reached twice, by whatever names, once.
    """
    return [f for f, _ in python_files(paths, exclude)]


def display_path_for(path: Path) -> str:
    """Repo-relative, ``/``-separated display path for ``path``.

    Findings render with this path, so output is stable across machines
    and working copies.  Paths outside the current working directory
    fall back to their literal form.
    """
    try:
        rel = os.path.relpath(path, start=Path.cwd())
    except ValueError:  # different drive on windows
        return path.as_posix()
    if rel.startswith(".."):
        return path.as_posix()
    return rel.replace(os.sep, "/")


def read_source(path: Path) -> str:
    """The text of ``path``; FileNotFoundError names it when unreadable."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError("cannot read {}: {}".format(path, exc)) from exc


def lint_source(
    path: Path,
    source: str,
    rules: Sequence[Rule],
    display_path: Optional[str] = None,
) -> Tuple[List[Finding], Optional[ModuleContext]]:
    """Run every applicable rule over one module's source.

    Returns the findings (suppressions applied, sorted) and the parsed
    module, or a lone parse-error finding and None when ``source`` does
    not parse.
    """
    try:
        module = ModuleContext(path, source, display_path=display_path)
    except SyntaxError as exc:
        finding = Finding(
            rule=PARSE_ERROR_RULE,
            message="syntax error: {}".format(exc.msg),
            path=display_path if display_path is not None else str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
        )
        return [finding], None
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings, module


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    display_path: Optional[str] = None,
) -> List[Finding]:
    """Run every applicable rule over one file; suppressions applied."""
    display = display_path if display_path is not None else str(path)
    return lint_source(scope_path(path), read_source(path), rules, display)[0]


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "ok": self.ok,
        }

    def render_text(self) -> str:
        out = [f.render() for f in self.findings]
        tail = "reprolint: {} finding(s) in {} file(s)".format(
            len(self.findings), self.files_checked
        )
        out.append(tail)
        return "\n".join(out)

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_sarif(self, rules: Sequence[Rule] = ()) -> str:
        """SARIF 2.1.0 document, for CI annotation uploads."""
        rule_meta = [
            {
                "id": r.rule_id,
                "shortDescription": {"text": r.title or r.rule_id},
                "fullDescription": {"text": r.rationale or r.title or r.rule_id},
            }
            for r in sorted(rules, key=lambda r: r.rule_id)
        ]
        results = [
            {
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {
                                "startLine": f.line,
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
            for f in self.findings
        ]
        doc = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "reprolint",
                            "informationUri": "https://example.invalid/reprolint",
                            "rules": rule_meta,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)
