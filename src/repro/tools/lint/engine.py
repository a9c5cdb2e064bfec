"""The reprolint engine: file walking, parsing, suppression, reporting.

The engine is deliberately small.  A :class:`Rule` sees one fully parsed
module at a time (as a :class:`ModuleContext`) and yields
:class:`Finding` objects; everything else — collecting the file set,
honouring ``# reprolint: disable=...`` comments, ordering output,
rendering text or JSON — lives here, so a new rule is ~30 lines of AST
visiting and nothing more.

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
    #: of the serialized/rendered form, so baselines stay stable.
    end_line: int = field(default=0, compare=False)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def baseline_key(self) -> Tuple[str, str, int]:
        """Identity used by ``--baseline`` matching."""
        return (self.rule, self.path, self.line)

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
    """Everything a rule may want to know about one parsed module."""

    def __init__(self, path: Path, source: str, display_path: Optional[str] = None) -> None:
        self.path = path
        self.display_path = display_path if display_path is not None else str(path)
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.suppressions: Dict[int, FrozenSet[str]] = _parse_suppressions(source)
        self.hot_lines: FrozenSet[int] = _parse_hot_lines(source)
        #: Path components, used by package-scoped rules (e.g. RL002 only
        #: polices ``sim``/``core``/``datacenter``/``power``).
        self.package_parts: Tuple[str, ...] = path.parts
        self.is_test_file: bool = bool(_TEST_FILE_RE.match(path.name))

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
        """True when any physical line the finding spans suppresses it.

        The span runs from the flagged node's first line to its
        ``end_lineno``, so a trailing ``# reprolint: disable=...`` on any
        line of a wrapped multi-line statement takes effect.
        """
        last = max(finding.line, finding.end_line)
        for line in range(finding.line, last + 1):
            rules = self.suppressions.get(line)
            if rules is not None and ("ALL" in rules or finding.rule.upper() in rules):
                return True
        return False


def _parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> set of suppressed rule ids (``ALL`` = every rule).

    Comments are located with :mod:`tokenize` so a ``#`` inside a string
    literal never counts as a suppression.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
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
        # Unterminated string etc. — ast.parse will produce the real error.
        pass
    return suppressions


def _parse_hot_lines(source: str) -> FrozenSet[int]:
    """Line numbers carrying a ``# reprolint: hot`` registry marker."""
    hot: List[int] = []
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type == tokenize.COMMENT and _HOT_RE.search(token.string):
                hot.append(token.start[0])
    except tokenize.TokenError:
        pass
    return frozenset(hot)


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


def iter_python_files(
    paths: Iterable[Path], exclude: Sequence[str] = ()
) -> List[Path]:
    """Expand files/directories into a stable, sorted list of ``.py`` files.

    ``exclude`` names path components that disqualify a file found under a
    directory argument (e.g. ``("lint_fixtures",)`` so fixture trees —
    which exist to be dirty — never pollute a directory sweep).  Files
    named explicitly are always linted.
    """
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
                and not any(part in exclude for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(
                "not a python file or directory: {}".format(path)
            )
    # De-duplicate while preserving sorted order per input path.
    seen = set()
    unique: List[Path] = []
    for f in files:
        key = str(f)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def display_path_for(path: Path, root: Optional[Path] = None) -> str:
    """Repo-relative, ``/``-separated display path for ``path``.

    Findings render (and enter baseline files) with this path, so output
    is stable across machines and working copies.  Paths outside ``root``
    (default: the current working directory) fall back to their literal
    form.
    """
    base = root if root is not None else Path.cwd()
    try:
        rel = os.path.relpath(path, start=base)
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
    return lint_source(path, read_source(path), rules, display_path)[0]


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    #: Pass-1 summary-cache accounting (0/0 when the cache is disabled).
    modules_reparsed: int = 0
    cache_hits: int = 0
    #: Findings suppressed by a ``--baseline`` file.
    baselined: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "files_checked": self.files_checked,
            "modules_reparsed": self.modules_reparsed,
            "cache_hits": self.cache_hits,
            "baselined": self.baselined,
            "findings": [f.to_dict() for f in self.findings],
            "ok": self.ok,
        }

    def render_text(self) -> str:
        out = [f.render() for f in self.findings]
        tail = "reprolint: {} finding(s) in {} file(s)".format(
            len(self.findings), self.files_checked
        )
        if self.cache_hits or self.modules_reparsed:
            tail += " ({} re-parsed, {} from summary cache)".format(
                self.modules_reparsed, self.cache_hits
            )
        if self.baselined:
            tail += " [{} baselined]".format(self.baselined)
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


def load_baseline(path: Path) -> FrozenSet[Tuple[str, str, int]]:
    """Read a baseline file into a set of finding identities.

    The format is the ``--format json`` report (or any JSON object with a
    ``findings`` list, or a bare list of finding dicts), so a baseline is
    captured with ``repro lint --format json > baseline.json``.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    records = payload.get("findings", []) if isinstance(payload, dict) else payload
    keys = set()
    for record in records:
        keys.add((record["rule"], record["path"], int(record["line"])))
    return frozenset(keys)


def apply_baseline(
    findings: List[Finding], baseline: FrozenSet[Tuple[str, str, int]]
) -> Tuple[List[Finding], int]:
    """Split findings into (new, suppressed-count) against ``baseline``."""
    fresh = [f for f in findings if f.baseline_key() not in baseline]
    return fresh, len(findings) - len(fresh)


def lint_paths(
    paths: Iterable[Path],
    rules: Optional[Sequence[Rule]] = None,
    **kwargs: Any,
) -> LintReport:
    """Lint every python file under ``paths``.

    This is the public entry point; it delegates to
    :func:`repro.tools.lint.project.lint_project`, which runs the
    per-module rules (pass 1, summary-cached) *and* the project-wide
    rules (pass 2) and emits repo-relative display paths.  ``rules``
    defaults to the full registered set — module and project rules; a
    mixed sequence is split automatically.  See ``lint_project`` for the
    keyword options (``cache``, ``baseline``, ``exclude``, ``root``).
    """
    from repro.tools.lint.project import lint_project

    return lint_project(paths, rules=rules, **kwargs)
