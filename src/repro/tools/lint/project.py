"""Pass 1 + pass 2 of the project-wide reprolint analyzer.

The per-module rules see one :class:`ModuleContext` at a time, which is
enough for local invariants but blind to the properties recent
regressions actually violated — RNG streams shared between subsystems,
trace events nobody validates, a mutation path that forgets to bump
``_demand_epoch``.  This module adds the whole-program layer:

* **Pass 1** derives each file once (its :class:`ModuleContext`), runs
  the per-module rules over it and distills it into a
  :class:`ModuleSummary` — function/class tables with attribute-write
  and call sets, RNG-constructor sites with their seed provenance,
  trace-event / registry / ``report.extra`` extractions, the
  suppression map, and the ``# reprolint: hot`` registry.
* **Pass 2** assembles the summaries into a :class:`ProjectContext`
  (module table, call-site index, class-attribute write map) that
  :class:`ProjectRule` subclasses analyze globally — RL012/RL013/RL014
  live in :mod:`repro.tools.lint.project_rules`.

:func:`lint_paths` runs both passes; it is the single entry point for
both kinds of rule and what ``repro lint`` calls.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.tools.lint.engine import (
    Finding,
    LintReport,
    ModuleContext,
    Rule,
    display_path_for,
    iter_python_files,
    lint_source,
    read_source,
    suppressed,
)

#: Attribute names that version a memoized aggregate: an integer counter
#: incremented (``self.X += 1``) on every mutation of the aggregate's
#: inputs.  ``_demand_epoch`` and ``_index_rev`` are the live instances.
EPOCH_FIELD_RE = re.compile(r"(epoch|rev)$")

#: Method names whose call mutates the receiver container in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "discard", "add",
        "clear", "update", "pop", "popitem", "setdefault", "sort",
        "reverse", "appendleft", "extendleft",
    }
)

#: Module-constant names pass 1 records as registries for RL012/RL013.
_REGISTRY_NAMES = frozenset({"EVENT_COVERAGE", "EXTRA_FIELDS", "RNG_STREAMS"})

#: Dotted names that construct an RNG (seed provenance is analyzed).
_RNG_CONSTRUCTORS = frozenset(
    {"numpy.random.default_rng", "random.Random", "repro.core.seeding.stream_rng"}
)

_SEEDISH_NAME_RE = re.compile(r"seed|digest", re.IGNORECASE)


# ----------------------------------------------------------------------
# Summary data model (plain data)
# ----------------------------------------------------------------------


@dataclass
class RngSite:
    """One RNG-constructor call and the provenance of its seed argument.

    ``kind`` is one of:

    ``stream``
        Seed is a labelled stream digest (``stream_digest("repair", ...)``
        or ``zlib.crc32("repair:{}:{}".format(...))``); ``label`` holds
        the subsystem prefix.
    ``unlabeled``
        A crc32 digest whose format string carries no literal subsystem
        prefix before the first ``:``.
    ``param``
        Seed flows in through the enclosing function's parameter
        ``label``; pass 2 taints call sites.
    ``attr-seed`` / ``const``
        ``self._seed``-style attribute or a literal constant — accepted.
    ``forward``
        A ``stream_digest``/``stream_rng`` call whose label is not a
        string literal (only the seeding helper module itself may do
        this).
    ``opaque``
        None of the above — the seed cannot be traced to the scenario
        seed statically.
    """

    line: int
    col: int
    end_line: int
    kind: str
    label: Optional[str]
    func: str  # qualname of the enclosing function ("" = module level)
    callee: str  # name call sites use for the enclosing function
    param_index: int = -1  # for kind == "param": index excluding self
    detail: str = ""


@dataclass
class CallSite:
    """One call expression, reduced to what seed tainting needs."""

    callee: str  # last component of the called name
    line: int
    col: int
    arg_seedish: List[bool] = field(default_factory=list)
    kwarg_seedish: Dict[str, bool] = field(default_factory=dict)


@dataclass
class MethodSummary:
    """Dataflow facts for one method, from a single-pass CFG-lite walk.

    ``always_*`` facts hold on every path that leaves the method
    normally (paths that ``raise`` are exempt — error paths do not
    commit a mutation); ``some_*`` facts hold on at least one path.
    """

    name: str
    lineno: int
    writes: List[List[Any]] = field(default_factory=list)  # [field, line, col]
    always_bumps: List[str] = field(default_factory=list)
    some_bumps: List[str] = field(default_factory=list)
    always_calls: List[str] = field(default_factory=list)
    some_calls: List[str] = field(default_factory=list)


@dataclass
class ClassSummary:
    name: str
    lineno: int
    methods: Dict[str, MethodSummary] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything pass 2 may want to know about one module."""

    path: str  # display path (repo-relative)
    package_parts: List[str] = field(default_factory=list)
    is_test_file: bool = False
    parse_error: bool = False
    hot_functions: List[str] = field(default_factory=list)
    rng_sites: List[RngSite] = field(default_factory=list)
    call_sites: List[CallSite] = field(default_factory=list)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    trace_events: Dict[str, int] = field(default_factory=dict)  # tag -> line
    #: Registry constants (dict registries map key -> [families..., line];
    #: tuple registries map "" -> [values..., line]).
    registries: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    flag_invariants: List[str] = field(default_factory=list)
    extra_writes: List[List[Any]] = field(default_factory=list)  # [key, line]
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def in_packages(self, packages: Sequence[str]) -> bool:
        return any(part in packages for part in self.package_parts)


# ----------------------------------------------------------------------
# Pass-1 extraction helpers
# ----------------------------------------------------------------------


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X`` (attribute access on the literal name self)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _callee_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _walk_own_scope(func: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested def/class.

    Nested functions are scanned under their own qualname (with their own
    parameter list), so descending here would double-count their RNG
    sites against the wrong scope.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_seedish(expr: ast.expr) -> bool:
    """True when the expression plausibly derives from the scenario seed.

    Any identifier mentioning seed/digest, or a literal number (a literal
    seed is deterministic by construction), taints the expression.
    """
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and _SEEDISH_NAME_RE.search(node.id):
            return True
        if isinstance(node, ast.Attribute) and _SEEDISH_NAME_RE.search(node.attr):
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return True
        if isinstance(node, ast.Call):
            name = _callee_name(node.func)
            if name in ("stream_digest", "stream_rng", "crc32", "default_rng"):
                return True
    return False


def _format_literal_text(node: ast.expr) -> Optional[str]:
    """Literal prefix text of a string being formatted, if extractable.

    Handles ``"fmt".format(...)``, f-strings, and ``"fmt" % args``; the
    returned text is the template itself (placeholders included for
    ``.format``/``%``; for f-strings only the leading literal run).
    """
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "format"
            and isinstance(func.value, ast.Constant)
            and isinstance(func.value.value, str)
        ):
            return func.value.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("{")
                break
        return "".join(parts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        if isinstance(node.left, ast.Constant) and isinstance(node.left.value, str):
            return node.left.value.replace("%s", "{}").replace("%d", "{}")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _label_from_crc32(call: ast.Call) -> Optional[str]:
    """Stream label of ``zlib.crc32("<label>:{}:{}".format(...).encode())``.

    Returns None when the format string has no literal subsystem prefix
    before the first ``:`` (e.g. ``"{}:{}"``).
    """
    if not call.args:
        return None
    arg = call.args[0]
    # Unwrap the .encode() call.
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "encode"
    ):
        arg = arg.func.value
    text = _format_literal_text(arg)
    if text is None:
        return None
    label = text.split(":", 1)[0]
    if not label or "{" in label or "%" in label:
        return None
    return label


class _SeedClassifier:
    """Trace an RNG-constructor seed argument back to its origin."""

    def __init__(
        self,
        env: Dict[str, ast.expr],
        params: Sequence[str],
        imports: Dict[str, str],
    ) -> None:
        self.env = env
        self.params = list(params)
        self.imports = imports

    def classify(self, expr: ast.expr, depth: int = 0) -> Tuple[str, Optional[str]]:
        if depth > 6:
            return ("opaque", None)
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, depth)
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return self.classify(self.env[expr.id], depth + 1)
            if expr.id in self.params:
                return ("param", expr.id)
            return ("opaque", expr.id)
        if isinstance(expr, ast.Attribute):
            if _SEEDISH_NAME_RE.search(expr.attr):
                return ("attr-seed", expr.attr)
            return ("opaque", None)
        if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
            return ("const", None)
        if isinstance(expr, ast.BinOp):
            left = self.classify(expr.left, depth + 1)
            right = self.classify(expr.right, depth + 1)
            for preferred in ("stream", "param", "attr-seed", "const"):
                for candidate in (left, right):
                    if candidate[0] == preferred:
                        return candidate
            return ("opaque", None)
        return ("opaque", None)

    def _classify_call(self, call: ast.Call, depth: int) -> Tuple[str, Optional[str]]:
        from repro.tools.lint.rules import resolve_dotted

        dotted = resolve_dotted(call.func, self.imports)
        name = _callee_name(call.func)
        if dotted == "zlib.crc32" or name == "crc32":
            label = _label_from_crc32(call)
            return ("stream", label) if label else ("unlabeled", None)
        if name in ("stream_digest", "stream_rng") or (
            dotted is not None and dotted.startswith("repro.core.seeding.stream_")
        ):
            if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
                call.args[0].value, str
            ):
                return ("stream", call.args[0].value)
            return ("forward", None)
        return ("opaque", None)


# ----------------------------------------------------------------------
# Method dataflow (CFG-lite): writes, epoch bumps, self-calls per path
# ----------------------------------------------------------------------


class _BlockFacts:
    __slots__ = (
        "always_bumps", "some_bumps", "always_calls", "some_calls",
        "writes", "raises",
    )

    def __init__(self) -> None:
        self.always_bumps: Set[str] = set()
        self.some_bumps: Set[str] = set()
        self.always_calls: Set[str] = set()
        self.some_calls: Set[str] = set()
        self.writes: List[Tuple[str, int, int]] = []
        self.raises = False

    def merge_sequential(self, other: "_BlockFacts") -> None:
        """Append facts of a block that always executes after this one."""
        self.always_bumps |= other.always_bumps
        self.some_bumps |= other.some_bumps
        self.always_calls |= other.always_calls
        self.some_calls |= other.some_calls
        self.writes.extend(other.writes)
        self.raises = self.raises or other.raises

    def demote(self) -> None:
        """Downgrade every always-fact to a some-fact (conditional block)."""
        self.some_bumps |= self.always_bumps
        self.some_calls |= self.always_calls
        self.always_bumps = set()
        self.always_calls = set()


def _stmt_expressions(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expression trees owned directly by ``stmt`` (no nested statements)."""
    for _name, value in ast.iter_fields(stmt):
        values = value if isinstance(value, list) else [value]
        for item in values:
            if isinstance(item, ast.expr):
                yield item


def _collect_stmt_facts(stmt: ast.stmt, facts: _BlockFacts) -> None:
    """Record writes/bumps/self-calls from one statement's own expressions."""
    # Epoch bump: ``self.X += <const int>`` with an epoch-ish name.
    if isinstance(stmt, ast.AugAssign):
        attr = _self_attr(stmt.target)
        if attr is not None:
            if (
                EPOCH_FIELD_RE.search(attr)
                and isinstance(stmt.op, ast.Add)
                and isinstance(stmt.value, ast.Constant)
            ):
                facts.always_bumps.add(attr)
            else:
                facts.writes.append((attr, stmt.lineno, stmt.col_offset))
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        for t in target.elts if isinstance(target, ast.Tuple) else [target]:
            attr = _self_attr(t)
            if attr is None and isinstance(t, ast.Subscript):
                attr = _self_attr(t.value)
            if attr is not None:
                facts.writes.append((attr, t.lineno, t.col_offset))
    # Self-calls and mutating container-method calls in owned expressions.
    for root in _stmt_expressions(stmt):
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                facts.always_calls.add(func.attr)
            elif func.attr in _MUTATOR_METHODS:
                attr = _self_attr(func.value)
                if attr is not None:
                    facts.writes.append((attr, node.lineno, node.col_offset))


def _analyze_block(stmts: Sequence[ast.stmt]) -> _BlockFacts:
    """Path-aware facts for one statement list.

    Branch facts are intersected (an ``always`` fact must hold in every
    live branch); a branch that unconditionally raises is exempt — an
    error path does not commit the mutation it guards.  Loop bodies may
    run zero times, so their facts demote to ``some``.
    """
    facts = _BlockFacts()
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        _collect_stmt_facts(stmt, facts)
        if isinstance(stmt, ast.If):
            body = _analyze_block(stmt.body)
            orelse = _analyze_block(stmt.orelse)
            live = [f for f in (body, orelse) if not f.raises]
            if not live:
                facts.raises = True
            elif len(live) == 1:
                facts.always_bumps |= live[0].always_bumps
                facts.always_calls |= live[0].always_calls
            else:
                facts.always_bumps |= body.always_bumps & orelse.always_bumps
                facts.always_calls |= body.always_calls & orelse.always_calls
            for f in (body, orelse):
                facts.some_bumps |= f.always_bumps | f.some_bumps
                facts.some_calls |= f.always_calls | f.some_calls
                facts.writes.extend(f.writes)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            for block in (stmt.body, stmt.orelse):
                f = _analyze_block(block)
                facts.some_bumps |= f.always_bumps | f.some_bumps
                facts.some_calls |= f.always_calls | f.some_calls
                facts.writes.extend(f.writes)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse):
                f = _analyze_block(block)
                facts.some_bumps |= f.always_bumps | f.some_bumps
                facts.some_calls |= f.always_calls | f.some_calls
                facts.writes.extend(f.writes)
            for handler in stmt.handlers:
                f = _analyze_block(handler.body)
                facts.some_bumps |= f.always_bumps | f.some_bumps
                facts.some_calls |= f.always_calls | f.some_calls
                facts.writes.extend(f.writes)
            facts.merge_sequential(_analyze_block(stmt.finalbody))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            facts.merge_sequential(_analyze_block(stmt.body))
        elif isinstance(stmt, ast.Raise):
            facts.raises = True
    return facts


def _summarize_method(func: ast.FunctionDef) -> MethodSummary:
    facts = _analyze_block(func.body)
    return MethodSummary(
        name=func.name,
        lineno=func.lineno,
        writes=[[f, line, col] for f, line, col in facts.writes],
        always_bumps=sorted(facts.always_bumps),
        some_bumps=sorted(facts.some_bumps | facts.always_bumps),
        always_calls=sorted(facts.always_calls),
        some_calls=sorted(facts.some_calls | facts.always_calls),
    )


# ----------------------------------------------------------------------
# summarize_module — pass 1 for one parsed module
# ----------------------------------------------------------------------


def _function_params(func: ast.FunctionDef, *, method: bool) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    return names


def _registry_entry(value: ast.expr) -> Optional[List[str]]:
    """Families named by one EVENT_COVERAGE value (str or tuple/list)."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return [value.value]
    if isinstance(value, (ast.Tuple, ast.List)):
        out = []
        for elt in value.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            out.append(elt.value)
        return out
    return None


def summarize_module(module: ModuleContext) -> ModuleSummary:
    """Distill one parsed module into its :class:`ModuleSummary`."""
    from repro.tools.lint.rules import resolve_dotted

    imports = module.imports
    summary = ModuleSummary(
        path=module.display_path,
        package_parts=list(module.package_parts),
        is_test_file=module.is_test_file,
        suppressions=module.suppressions,
    )

    # --- registries, trace events, flag() invariants (module level) ---
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in _REGISTRY_NAMES:
                if isinstance(node.value, ast.Dict):
                    entries: Dict[str, Any] = {}
                    for key, value in zip(node.value.keys, node.value.values):
                        if not (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                        ):
                            continue
                        families = _registry_entry(value)
                        if families is not None:
                            entries[key.value] = [families, key.lineno]
                    summary.registries[target.id] = entries
                elif isinstance(node.value, (ast.Tuple, ast.List)):
                    values = _registry_entry(node.value)
                    if values is not None:
                        summary.registries[target.id] = {
                            "": [values, node.lineno]
                        }

    for node in module.nodes:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    t = stmt.targets[0]
                    if isinstance(t, ast.Name) and t.id == "event":
                        value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ) and stmt.target.id == "event":
                    value = stmt.value
                if (
                    value is not None
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and value.value  # base-class placeholder tag is ""
                ):
                    summary.trace_events[value.value] = node.lineno
            summary.classes[node.name] = ClassSummary(
                name=node.name,
                lineno=node.lineno,
                methods={
                    stmt.name: _summarize_method(stmt)
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                },
            )
        elif isinstance(node, ast.Call):
            name = _callee_name(node.func)
            # Call sites for seed tainting.
            if name is not None and (node.args or node.keywords):
                summary.call_sites.append(
                    CallSite(
                        callee=name,
                        line=node.lineno,
                        col=node.col_offset,
                        arg_seedish=[_is_seedish(a) for a in node.args],
                        kwarg_seedish={
                            kw.arg: _is_seedish(kw.value)
                            for kw in node.keywords
                            if kw.arg is not None
                        },
                    )
                )
            if (
                name == "flag"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                summary.flag_invariants.append(node.args[0].value)
            # report.extra.update({...}) — counter keys into the report.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "extra"
                and node.args
                and isinstance(node.args[0], ast.Dict)
            ):
                for key in node.args[0].keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        summary.extra_writes.append([key.value, key.lineno])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "extra"
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    summary.extra_writes.append([target.slice.value, target.lineno])

    # --- functions: hot registry, RNG sites ---------------------------
    # Only a module that calls an RNG constructor has sites to classify.
    has_rng = any(
        isinstance(node, ast.Call)
        and (
            resolve_dotted(node.func, imports) in _RNG_CONSTRUCTORS
            or _callee_name(node.func) == "stream_rng"
        )
        for node in module.nodes
    )

    def visit_scope(
        body: Sequence[ast.stmt], qual: str, owner_class: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                visit_scope(stmt.body, _join(qual, stmt.name), stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = _join(qual, stmt.name)
                if module.is_hot(stmt):
                    summary.hot_functions.append(fq)
                if has_rng:
                    _scan_function(stmt, fq, owner_class)
                visit_scope(stmt.body, fq, None)

    def _join(qual: str, name: str) -> str:
        return "{}.{}".format(qual, name) if qual else name

    def _scan_function(
        func: ast.FunctionDef, qualname: str, owner_class: Optional[str]
    ) -> None:
        params = _function_params(func, method=owner_class is not None)
        env: Dict[str, ast.expr] = {}
        # Straight-line local bindings, for tracing digest variables.
        for node in _walk_own_scope(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                t = node.targets[0]
                if isinstance(t, ast.Name) and t.id not in env:
                    env[t.id] = node.value
        classifier = _SeedClassifier(env, params, imports)
        callee = (
            owner_class
            if owner_class is not None and func.name == "__init__"
            else func.name
        )
        for node in _walk_own_scope(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            name = _callee_name(node.func)
            if dotted in _RNG_CONSTRUCTORS or name == "stream_rng":
                if name == "stream_rng" or (
                    dotted is not None and dotted.endswith("stream_rng")
                ):
                    kind, label = classifier._classify_call(node, 0)
                elif not node.args:
                    continue  # unseeded — RL001's finding, not RL012's
                else:
                    kind, label = classifier.classify(node.args[0])
                param_index = (
                    params.index(label)
                    if kind == "param" and label in params
                    else -1
                )
                summary.rng_sites.append(
                    RngSite(
                        line=node.lineno,
                        col=node.col_offset,
                        end_line=getattr(node, "end_lineno", None) or node.lineno,
                        kind=kind,
                        label=label,
                        func=qualname,
                        callee=callee,
                        param_index=param_index,
                    )
                )

    visit_scope(module.tree.body, "", None)
    return summary


# ----------------------------------------------------------------------
# ProjectContext + ProjectRule (pass 2)
# ----------------------------------------------------------------------


class ProjectContext:
    """Cross-module view assembled from pass-1 summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        #: display path -> summary, iteration-stable (sorted by path).
        self.modules: Dict[str, ModuleSummary] = {
            s.path: s for s in sorted(summaries, key=lambda s: s.path)
        }

    def iter_modules(self) -> Iterator[ModuleSummary]:
        return iter(self.modules.values())

    def registry(self, name: str) -> Optional[Tuple[str, Dict[str, Any]]]:
        """First module defining registry ``name`` -> (path, entries)."""
        for summary in self.iter_modules():
            if name in summary.registries:
                return summary.path, summary.registries[name]
        return None

    def is_suppressed(self, finding: Finding) -> bool:
        summary = self.modules.get(finding.path)
        return summary is not None and suppressed(summary.suppressions, finding)


class ProjectRule:
    """Base class for whole-program rules (pass 2).

    Subclasses implement :meth:`check_project`, yielding findings against
    any module in the :class:`ProjectContext`.  ``scoped_packages`` and
    ``skip_test_files`` filter which modules' *facts* participate — use
    :meth:`module_in_scope` when iterating summaries.
    """

    rule_id: str = "RL998"
    title: str = ""
    rationale: str = ""
    scoped_packages: Optional[Tuple[str, ...]] = None
    skip_test_files: bool = True

    def module_in_scope(self, summary: ModuleSummary) -> bool:
        if summary.parse_error:
            return False
        if self.skip_test_files and summary.is_test_file:
            return False
        if self.scoped_packages is not None and not summary.in_packages(
            self.scoped_packages
        ):
            return False
        return True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# lint_paths — the two-pass entry point
# ----------------------------------------------------------------------


def _split_rules(
    rules: Optional[Sequence[Any]],
) -> Tuple[List[Rule], List[ProjectRule]]:
    if rules is None:
        from repro.tools.lint.project_rules import default_project_rules
        from repro.tools.lint.rules import default_rules

        return list(default_rules()), list(default_project_rules())
    module_rules = [r for r in rules if isinstance(r, Rule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    return module_rules, project_rules


def lint_paths(
    paths: Iterable[Any],
    rules: Optional[Sequence[Any]] = None,
    *,
    exclude: Sequence[str] = (),
) -> LintReport:
    """Lint every python file under ``paths``: pass 1, then pass 2.

    ``rules`` may mix :class:`Rule` and :class:`ProjectRule` instances
    (None = the full default set of both).  ``exclude`` names directory
    components to skip below a directory argument (see
    :func:`~repro.tools.lint.engine.iter_python_files`).  Findings carry
    paths relative to the working directory.
    """
    module_rules, project_rules = _split_rules(rules)
    files = iter_python_files([Path(p) for p in paths], exclude)

    # Pass 1: derive each file once, run the module rules, summarize.
    findings: List[Finding] = []
    summaries: List[ModuleSummary] = []
    for path in files:
        display = display_path_for(path)
        module_findings, module = lint_source(
            path, read_source(path), module_rules, display
        )
        findings.extend(module_findings)
        summaries.append(
            summarize_module(module)
            if module is not None
            else ModuleSummary(path=display, parse_error=True)
        )

    # Pass 2: project rules over the assembled context.
    project = ProjectContext(summaries)
    for rule in project_rules:
        for finding in rule.check_project(project):
            if not project.is_suppressed(finding):
                findings.append(finding)

    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings, files_checked=len(files))
