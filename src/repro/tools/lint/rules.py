"""The reprolint rule set: domain invariants of this reproduction.

Every rule protects a property the simulation's headline numbers depend
on — bit-determinism under a seed (RL001/RL002), dimensional sanity of
the watt/joule/second/GB arithmetic (RL003/RL004), artifacts that
survive the process-pool and disk-cache boundaries introduced in
PR 1 (RL008), the traced power-transition discipline the
decision-trace validator replays (RL009), and the O(changed-hosts)
decision hot paths the fleet-scale kernel relies on (RL011) and the
allocation hygiene of every ``# reprolint: hot``-registered function
(RL015) — plus two general correctness rules that have bitten
simulation codebases before (RL006/RL007); mutable defaults are left to
ruff's B006.  The *project-wide*
rules (RL012–RL014: RNG stream provenance, trace/validator coverage,
memo-invalidation completeness) live in
:mod:`repro.tools.lint.project_rules` and run in pass 2 over the
assembled :class:`~repro.tools.lint.project.ProjectContext`.

Adding a rule: subclass :class:`~repro.tools.lint.engine.Rule`, set
``rule_id``/``title``/``rationale``, implement ``check`` (usually ~30
lines of AST walking over ``module.tree``), and append the class to
:data:`ALL_RULES`.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.tools.lint.engine import Finding, ModuleContext, Rule
from repro.tools.lint.units import UnitInferencer, describe

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Local alias -> canonical dotted path, for every import in the module.

    ``import numpy as np``            -> ``np: numpy``
    ``from numpy import random``      -> ``random: numpy.random``
    ``from time import time as now``  -> ``now: time.time``
    """
    aliases: Dict[str, str] = {}
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


def resolve_dotted(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a Name/Attribute chain, or None.

    ``np.random.shuffle`` resolves to ``numpy.random.shuffle`` given
    ``import numpy as np``.  Chains whose base is not an imported alias
    (e.g. ``self.rng.random``) resolve to None — they are method calls on
    objects, not module-level access.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _expr_roots(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The expression trees directly owned by one statement.

    Nested statements (bodies of ``if``/``for``/``with``/``def`` …) are
    *not* included — scope walking handles those explicitly.
    """
    for _field, value in ast.iter_fields(stmt):
        values = value if isinstance(value, list) else [value]
        for item in values:
            if isinstance(item, ast.expr):
                yield item


def iter_scoped_exprs(
    body: Sequence[ast.stmt],
) -> Iterator[Tuple[ast.expr, UnitInferencer]]:
    """Yield every expression node with the unit table live at that point.

    Each function/class body opens a fresh :class:`UnitInferencer`;
    straight-line assignments update it in statement order, so
    ``total = a_w + b_w; total + c_j`` resolves ``total`` to watts.
    """

    def walk_body(
        stmts: Sequence[ast.stmt], inferencer: UnitInferencer
    ) -> Iterator[Tuple[ast.expr, UnitInferencer]]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk_body(stmt.body, UnitInferencer())
                continue
            for root in _expr_roots(stmt):
                for node in ast.walk(root):
                    if isinstance(node, ast.expr):
                        yield node, inferencer
            inferencer.learn_assign(stmt)
            for _field, value in ast.iter_fields(stmt):
                if not isinstance(value, list) or not value:
                    continue
                if isinstance(value[0], ast.stmt):
                    yield from walk_body(value, inferencer)
                elif isinstance(value[0], ast.ExceptHandler):
                    for handler in value:
                        yield from walk_body(handler.body, inferencer)

    yield from walk_body(body, UnitInferencer())


# ----------------------------------------------------------------------
# RL001 — unseeded / global-state RNG
# ----------------------------------------------------------------------

#: numpy.random attributes that construct *seeded* generators.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


class UnseededRandomRule(Rule):
    rule_id = "RL001"
    title = "no unseeded or global-state RNG"
    rationale = (
        "all randomness must flow from numpy default_rng(seed) so serial, "
        "parallel and cached runs are bit-identical"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports = build_import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted is None:
                continue
            if dotted.startswith("numpy.random."):
                attr = dotted.split(".", 2)[2]
                if attr.split(".")[0] not in _NP_RANDOM_ALLOWED:
                    yield module.finding(
                        self.rule_id,
                        node,
                        "call to the global numpy RNG `{}`; use a seeded "
                        "`np.random.default_rng(seed)` generator instead".format(
                            dotted
                        ),
                    )
            elif dotted == "random.Random":
                if not node.args:
                    yield module.finding(
                        self.rule_id,
                        node,
                        "`random.Random()` with no seed is OS-entropy seeded; "
                        "pass an explicit seed",
                    )
            elif dotted == "random.SystemRandom" or dotted.startswith(
                "random.SystemRandom."
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    "`random.SystemRandom` draws from os.urandom and can "
                    "never be made deterministic",
                )
            elif dotted.startswith("random."):
                attr = dotted.split(".", 1)[1]
                if attr[:1].islower():
                    yield module.finding(
                        self.rule_id,
                        node,
                        "call to the global stdlib RNG `{}`; thread a seeded "
                        "`np.random.default_rng(seed)` generator through "
                        "instead".format(dotted),
                    )


# ----------------------------------------------------------------------
# RL002 — wall-clock / environment nondeterminism in simulation packages
# ----------------------------------------------------------------------

_WALL_CLOCK_CALLS: Dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "host-clock read",
    "time.monotonic_ns": "host-clock read",
    "time.perf_counter": "host-clock read",
    "time.perf_counter_ns": "host-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "OS-entropy id",
}


class WallClockRule(Rule):
    rule_id = "RL002"
    title = "no wall-clock or environment nondeterminism in simulation code"
    rationale = (
        "simulated time comes from the event loop; host clocks, OS entropy "
        "and unordered set iteration make runs diverge across processes"
    )
    scoped_packages: Tuple[str, ...] = (
        "sim",
        "core",
        "datacenter",
        "power",
        "placement",
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports = build_import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = resolve_dotted(node.func, imports)
                if dotted in _WALL_CLOCK_CALLS:
                    yield module.finding(
                        self.rule_id,
                        node,
                        "`{}` is a {}; simulation code must derive all values "
                        "from simulated time and seeded RNGs".format(
                            dotted, _WALL_CLOCK_CALLS[dotted]
                        ),
                    )
                elif dotted is not None and dotted.startswith("secrets."):
                    yield module.finding(
                        self.rule_id,
                        node,
                        "`{}` draws OS entropy; simulation code must be "
                        "deterministic under a seed".format(dotted),
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_unordered(node.iter):
                    yield module.finding(
                        self.rule_id,
                        node.iter,
                        "iterating a set here makes ordering "
                        "interpreter-dependent and can reorder placement or "
                        "sampling decisions; wrap it in `sorted(...)`",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if self._is_unordered(gen.iter):
                        yield module.finding(
                            self.rule_id,
                            gen.iter,
                            "comprehension iterates a set; ordering is "
                            "interpreter-dependent — wrap it in `sorted(...)`",
                        )

    @staticmethod
    def _is_unordered(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False


# ----------------------------------------------------------------------
# RL003 — units discipline (no unconverted mixing of unit suffixes)
# ----------------------------------------------------------------------


class UnitMixRule(Rule):
    rule_id = "RL003"
    title = "no arithmetic mixing conflicting unit suffixes"
    rationale = (
        "adding watts to joules (or seconds to hours) is always a bug; "
        "convert explicitly so the energy accounting stays dimensionally sane"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node, inferencer in iter_scoped_exprs(module.tree.body):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left = inferencer.infer(node.left)
                right = inferencer.infer(node.right)
                if left is not None and right is not None and left != right:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    yield module.finding(
                        self.rule_id,
                        node,
                        "`{}` mixes {} and {} without an explicit "
                        "conversion".format(op, describe(left), describe(right)),
                    )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for i, op in enumerate(node.ops):
                    if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                        continue
                    left = inferencer.infer(operands[i])
                    right = inferencer.infer(operands[i + 1])
                    if left is not None and right is not None and left != right:
                        yield module.finding(
                            self.rule_id,
                            node,
                            "comparison mixes {} and {} without an explicit "
                            "conversion".format(describe(left), describe(right)),
                        )


# ----------------------------------------------------------------------
# RL004 — float equality on unit-suffixed quantities
# ----------------------------------------------------------------------


class UnitEqualityRule(Rule):
    rule_id = "RL004"
    title = "no ==/!= on unit-suffixed (float) quantities"
    rationale = (
        "watt/joule/second values are floats accumulated over thousands of "
        "epochs; exact equality silently stops matching — compare with a "
        "tolerance or an ordering"
    )
    #: Tests legitimately assert bit-exact values (that is what the
    #: determinism suite *is*), so only library code is policed.
    skip_test_files = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node, inferencer in iter_scoped_exprs(module.tree.body):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if self._is_none(left) or self._is_none(right):
                    continue
                left_unit = inferencer.infer(left)
                right_unit = inferencer.infer(right)
                unit = left_unit if left_unit is not None else right_unit
                if unit is None:
                    continue
                yield module.finding(
                    self.rule_id,
                    node,
                    "exact float {} on a {} quantity; use a tolerance "
                    "(abs(a - b) < eps) or an ordering comparison".format(
                        "==" if isinstance(op, ast.Eq) else "!=", describe(unit)
                    ),
                )

    @staticmethod
    def _is_none(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and node.value is None


# ----------------------------------------------------------------------
# RL006 — bare / overbroad except
# ----------------------------------------------------------------------


class OverbroadExceptRule(Rule):
    rule_id = "RL006"
    title = "no bare or overbroad except clauses"
    rationale = (
        "`except:` and `except Exception:` swallow the determinism and "
        "accounting errors the other rules exist to surface; catch the "
        "specific exception or re-raise"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if node.type is not None and broad is None:
                continue
            if self._reraises(node):
                continue
            label = "bare `except:`" if node.type is None else (
                "`except {}:`".format(broad)
            )
            yield module.finding(
                self.rule_id,
                node,
                "{} without re-raising; catch the specific exception "
                "instead".format(label),
            )

    @staticmethod
    def _broad_name(node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return None
        names = [node] if not isinstance(node, ast.Tuple) else list(node.elts)
        for item in names:
            if isinstance(item, ast.Name) and item.id in ("Exception", "BaseException"):
                return item.id
        return None

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Raise):
                return True
        return False


# ----------------------------------------------------------------------
# RL007 — assert as runtime validation in library code
# ----------------------------------------------------------------------


class RuntimeAssertRule(Rule):
    rule_id = "RL007"
    title = "no `assert` for runtime validation in library code"
    rationale = (
        "`python -O` strips asserts, so a guard written as `assert` "
        "silently vanishes in optimized deployments; raise a real exception"
    )
    skip_test_files = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield module.finding(
                    self.rule_id,
                    node,
                    "`assert` is stripped under `python -O`; raise an "
                    "explicit exception (ValueError/RuntimeError) instead",
                )


# ----------------------------------------------------------------------
# RL008 — result dataclasses must have statically picklable fields
# ----------------------------------------------------------------------

#: Annotation identifiers that denote values pickle cannot serialize.
_UNPICKLABLE_TYPES = frozenset(
    {
        "Callable",
        "Generator",
        "Iterator",
        "AsyncGenerator",
        "AsyncIterator",
        "Coroutine",
        "IO",
        "TextIO",
        "BinaryIO",
        "TextIOWrapper",
        "BufferedReader",
        "BufferedWriter",
        "FileIO",
        "socket",
        "Thread",
        "Lock",
        "RLock",
        "Condition",
        "GeneratorType",
        "FunctionType",
        "LambdaType",
        "ModuleType",
        "FrameType",
        "TracebackType",
    }
)

#: Dataclasses named like results cross the process-pool / disk-cache
#: boundary (see repro.core.parallel) and must pickle.
_RESULT_NAME_SUFFIXES = ("Artifacts", "Snapshot", "Result", "Spec", "Report", "Record")


class UnpicklableFieldRule(Rule):
    rule_id = "RL008"
    title = "result dataclass fields must be statically picklable"
    rationale = (
        "ScenarioArtifacts-like dataclasses cross the ProcessPoolExecutor "
        "boundary and live in the disk cache; a lambda, generator or open "
        "handle field fails only at runtime, deep inside a worker"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_result_dataclass(node):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield from self._check_field(module, node.name, stmt)

    @staticmethod
    def _is_result_dataclass(node: ast.ClassDef) -> bool:
        if not node.name.endswith(_RESULT_NAME_SUFFIXES):
            return False
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name == "dataclass":
                return True
        return False

    def _check_field(
        self, module: ModuleContext, class_name: str, stmt: ast.AnnAssign
    ) -> Iterator[Finding]:
        field_name = stmt.target.id if isinstance(stmt.target, ast.Name) else "?"
        for sub in ast.walk(stmt.annotation):
            ident = None
            if isinstance(sub, ast.Name):
                ident = sub.id
            elif isinstance(sub, ast.Attribute):
                ident = sub.attr
            if ident in _UNPICKLABLE_TYPES:
                yield module.finding(
                    self.rule_id,
                    stmt,
                    "field `{}.{}` is annotated with unpicklable type "
                    "`{}`; it cannot cross the process pool or live in the "
                    "result cache".format(class_name, field_name, ident),
                )
        if stmt.value is not None:
            for sub in self._default_value_nodes(stmt.value):
                if isinstance(sub, ast.Lambda):
                    yield module.finding(
                        self.rule_id,
                        stmt,
                        "field `{}.{}` defaults to a lambda, which pickle "
                        "cannot serialize".format(class_name, field_name),
                    )
                    break

    @staticmethod
    def _default_value_nodes(value: ast.expr) -> Iterator[ast.AST]:
        """Nodes that can end up as a field *value* on instances.

        A lambda passed as ``field(default_factory=...)`` is called at
        construction time and never stored, so that subtree is exempt;
        a lambda passed as ``field(default=...)`` or assigned directly
        *is* the stored value.
        """
        is_field_call = (
            isinstance(value, ast.Call)
            and isinstance(value.func, (ast.Name, ast.Attribute))
            and (
                value.func.id == "field"
                if isinstance(value.func, ast.Name)
                else value.func.attr == "field"
            )
        )
        if not is_field_call:
            yield from ast.walk(value)
            return
        for keyword in value.keywords:
            if keyword.arg == "default_factory":
                continue
            yield from ast.walk(keyword.value)
        for arg in value.args:
            yield from ast.walk(arg)


# ----------------------------------------------------------------------
# RL009 — no power-state mutation bypassing the traced transition API
# ----------------------------------------------------------------------

#: Private attributes owned by HostPowerStateMachine's transition logic.
_MACHINE_STATE_ATTRS = frozenset({"_state", "_transition"})


class UntracedTransitionRule(Rule):
    rule_id = "RL009"
    title = "no power-state mutation bypassing the traced transition API"
    rationale = (
        "HostPowerStateMachine.transition_to is the only door: it checks "
        "legality, samples latency once, meters energy, and emits the "
        "decision-trace events the invariant checker replays; writing "
        "`._state`/`._transition` or calling `._run_transition` directly "
        "produces untraceable state changes the validator cannot certify"
    )
    #: The machine module owns these attributes; tests may force states to
    #: exercise error paths.
    skip_test_files = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.path.name == "machine.py" and module.in_packages(("power",)):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _MACHINE_STATE_ATTRS
                    ):
                        yield module.finding(
                            self.rule_id,
                            node,
                            "direct write to `{}` bypasses the traced "
                            "transition API; go through "
                            "`transition_to()` (or `Host.park()`/"
                            "`Host.wake()`)".format(target.attr),
                        )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "_run_transition"
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    "`_run_transition` skips the legality check and "
                    "re-samples latency; call `transition_to()` instead",
                )


# ----------------------------------------------------------------------
# RL010 — no raw MigrationEngine.migrate calls outside the retry wrapper
# ----------------------------------------------------------------------


class RawMigrateRule(Rule):
    rule_id = "RL010"
    title = "no MigrationEngine.migrate calls outside the engine/manager"
    rationale = (
        "PowerAwareManager wraps evacuation flights in a retry/rollback "
        "watcher and traces every attempt; a raw `engine.migrate()` call "
        "elsewhere produces migrations that can fail mid-copy with nobody "
        "retrying them and no migration-retry trace for the validator — "
        "route migrations through the manager (balancer moves, "
        "evacuations) or suppress explicitly"
    )
    #: Tests drive the engine directly to exercise its edge cases.
    skip_test_files = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        # The engine owns the call; the manager (the plane's global
        # arbiter) hosts the retry wrapper and the balancer's
        # opportunistic moves, retried next round.
        if module.path.name == "engine.py" and module.in_packages(("migration",)):
            return
        if module.path.name == "arbiter.py" and module.in_packages(("plane",)):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "migrate"):
                continue
            if not self._engine_receiver(func.value):
                continue
            yield module.finding(
                self.rule_id,
                node,
                "raw `MigrationEngine.migrate()` call outside the "
                "engine/manager retry wrapper; failed flights would go "
                "unretried and untraced — go through the manager",
            )

    @staticmethod
    def _engine_receiver(node: ast.expr) -> bool:
        """True when the ``.migrate`` receiver looks like a MigrationEngine.

        Matches ``engine.migrate(...)``, ``self.engine.migrate(...)``,
        ``result.engine.migrate(...)`` — any Name/Attribute chain whose
        final component mentions an engine.
        """
        if isinstance(node, ast.Name):
            return "engine" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "engine" in node.attr.lower()
        return False


# ----------------------------------------------------------------------
# RL011 — no full-inventory host scans in the DRM decision hot paths
# ----------------------------------------------------------------------

#: Legacy hot-path function names, kept so the rule still fires on the
#: manager's decision path even if a ``# reprolint: hot`` marker is
#: dropped.  New hot functions register with the marker instead of being
#: added here — RL011 and RL015 both honour the union.
_HOT_PATH_FUNCS = frozenset({"evaluate", "react_to_shortfall"})


def _is_hot_function(module: ModuleContext, func: ast.AST) -> bool:
    """True for functions in the kernel-hot registry.

    The registry is the union of explicitly marked functions
    (``# reprolint: hot`` on the signature) and the legacy hardcoded
    manager decision-path names.
    """
    return module.is_hot(func) or getattr(func, "name", "") in _HOT_PATH_FUNCS


class HotPathClusterScanRule(Rule):
    rule_id = "RL011"
    title = "no full-cluster host scans in DRM decision hot paths"
    rationale = (
        "`evaluate` and `react_to_shortfall` run every round on every "
        "tick; iterating `cluster.hosts` there is an O(fleet) scan that "
        "the incremental host indices exist to avoid — read "
        "`active_hosts()`/`placeable_hosts()`/`parked_hosts()` (or the "
        "capacity aggregates) instead, and suppress per line only for a "
        "deliberate reconciliation pass that must see every host"
    )
    #: Tests drive the manager against toy clusters where a scan is fine.
    skip_test_files = True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_hot_function(module, node):
                continue
            yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleContext, func: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_cluster_hosts(it):
                    yield module.finding(
                        self.rule_id,
                        it,
                        "full-cluster `.hosts` scan inside `{}`; use the "
                        "incremental index views (`active_hosts()`, "
                        "`placeable_hosts()`, ...) or suppress for an "
                        "explicit reconciliation pass".format(
                            getattr(func, "name", "?")
                        ),
                    )

    @staticmethod
    def _is_cluster_hosts(node: ast.expr) -> bool:
        """True for ``<cluster-ish>.hosts`` — the full inventory list.

        Matches ``cluster.hosts``, ``self.cluster.hosts``,
        ``result.cluster.hosts`` — any receiver whose final component
        mentions a cluster.
        """
        if not (isinstance(node, ast.Attribute) and node.attr == "hosts"):
            return False
        value = node.value
        if isinstance(value, ast.Name):
            return "cluster" in value.id.lower()
        if isinstance(value, ast.Attribute):
            return "cluster" in value.attr.lower()
        return False


# ----------------------------------------------------------------------
# RL015 — allocation hygiene in kernel-hot functions
# ----------------------------------------------------------------------


class AllocationHygieneRule(Rule):
    rule_id = "RL015"
    title = "no sorted()/comprehensions/loop container churn in hot functions"
    rationale = (
        "Functions in the `# reprolint: hot` registry run per tick per "
        "host at fleet scale; a sorted() call or a comprehension builds "
        "a fresh container every invocation, and a dict/list/set "
        "constructed inside a loop multiplies that by the iteration "
        "count.  Hoist the allocation, reuse a preallocated buffer, or "
        "switch to a generator expression (allocation-free) — suppress "
        "per line only for a slow path that is provably off-tick."
    )
    skip_test_files = True

    #: Builtin constructors whose call inside a loop churns a container.
    _CONTAINER_BUILTINS = frozenset({"dict", "list", "set"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_hot_function(module, node):
                continue
            for stmt in node.body:
                yield from self._check_node(module, stmt, node.name, 0)

    def _check_node(
        self, module: ModuleContext, node: ast.AST, func: str, loop_depth: int
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs execute in the hot scope too; keep walking but
            # reset loop depth (the def body runs when *called*).
            loop_depth = 0
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "sorted":
                yield module.finding(
                    self.rule_id,
                    node,
                    "sorted() in kernel-hot `{}` allocates and sorts a "
                    "fresh list per call; hoist it off the hot path".format(func),
                )
            elif loop_depth and node.func.id in self._CONTAINER_BUILTINS:
                yield module.finding(
                    self.rule_id,
                    node,
                    "{}() constructed inside a loop in kernel-hot `{}`; "
                    "hoist or reuse a preallocated container".format(
                        node.func.id, func
                    ),
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            yield module.finding(
                self.rule_id,
                node,
                "comprehension in kernel-hot `{}` builds a container per "
                "call; use a generator expression or a preallocated "
                "buffer".format(func),
            )
        elif loop_depth and isinstance(node, (ast.Dict, ast.List, ast.Set)):
            yield module.finding(
                self.rule_id,
                node,
                "container literal inside a loop in kernel-hot `{}`; "
                "hoist or reuse a preallocated container".format(func),
            )
        inner_depth = loop_depth + (
            1 if isinstance(node, (ast.For, ast.AsyncFor, ast.While)) else 0
        )
        for child in ast.iter_child_nodes(node):
            yield from self._check_node(module, child, func, inner_depth)


class AtomicArtifactWriteRule(Rule):
    rule_id = "RL016"
    title = "artifact-path modules must write files through atomic_write"
    rationale = (
        "cache entries, checkpoints, traces and benchmark artifacts are "
        "read back by resume paths and differential tests; a bare "
        "open()/write_text() torn by a crash poisons them silently, while "
        "repro.core.atomicio (tmp + fsync + rename) cannot"
    )

    #: Module basenames on the durable-artifact path.  Anything here that
    #: opens a file for writing must route through the atomicio helpers
    #: (or carry an inline disable with a recorded justification, like
    #: the append-structured metrics stream).
    artifact_files: Tuple[str, ...] = (
        "cache.py",
        "checkpoint.py",
        "trace.py",
        "stream.py",
        "cli.py",
        "corpus.py",
        "project.py",
    )
    #: A module under benchmarks/ that writes an artifact must write it
    #: atomically, although its test_* name would otherwise exempt it.
    artifact_dirs: Tuple[str, ...] = ("benchmarks",)
    _WRITE_MODES = frozenset("wax")

    def _in_scope(self, module: ModuleContext) -> bool:
        name = module.path.name
        if name == "atomicio.py":  # the helper implements the discipline
            return False
        # benchmarks/ modules are named test_*, so the directory scope
        # wins over the test-file exemption.
        if module.in_packages(self.artifact_dirs):
            return True
        if module.is_test_file:
            return False
        return name in self.artifact_files

    @classmethod
    def _mode_writes(cls, node: ast.Call, mode_position: int) -> bool:
        """True when the call's mode argument requests writing."""
        mode: Optional[ast.expr] = None
        if len(node.args) > mode_position:
            mode = node.args[mode_position]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return False  # default "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(ch in cls._WRITE_MODES for ch in mode.value)
        return True  # dynamic mode: assume the worst

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not self._in_scope(module):
            return
        imports = build_import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                if self._mode_writes(node, mode_position=1):
                    yield module.finding(
                        self.rule_id,
                        node,
                        "open() for writing on the artifact path; use "
                        "repro.core.atomicio.atomic_write* so a crash "
                        "cannot tear the file",
                    )
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted == "os.fdopen" and self._mode_writes(node, mode_position=1):
                yield module.finding(
                    self.rule_id,
                    node,
                    "os.fdopen() for writing on the artifact path; use "
                    "repro.core.atomicio.atomic_write* (it owns the "
                    "tmp-file + fsync + rename dance)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("write_text", "write_bytes")
                and dotted is None
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    ".{}() on the artifact path is not crash-safe; use "
                    "repro.core.atomicio.atomic_write*".format(node.func.attr),
                )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

ALL_RULES: Tuple[Type[Rule], ...] = (
    UnseededRandomRule,
    WallClockRule,
    UnitMixRule,
    UnitEqualityRule,
    OverbroadExceptRule,
    RuntimeAssertRule,
    UnpicklableFieldRule,
    UntracedTransitionRule,
    RawMigrateRule,
    HotPathClusterScanRule,
    AllocationHygieneRule,
    AtomicArtifactWriteRule,
)

#: Per-module rules only; see :func:`registry` for the combined map that
#: includes the project-wide rules (RL012–RL014).
RULES_BY_ID: Dict[str, Type[Rule]] = {cls.rule_id: cls for cls in ALL_RULES}


def registry() -> Dict[str, type]:
    """Combined id -> class map: module rules and project rules.

    Imported lazily to keep ``rules`` importable without the project
    layer (``project_rules`` depends on ``project`` which depends on
    this module).
    """
    from repro.tools.lint.project_rules import ALL_PROJECT_RULES

    combined: Dict[str, type] = dict(RULES_BY_ID)
    combined.update({cls.rule_id: cls for cls in ALL_PROJECT_RULES})
    return combined


def default_rules() -> List[Rule]:
    """Fresh instances of every registered *module* rule, in id order."""
    return [RULES_BY_ID[rule_id]() for rule_id in sorted(RULES_BY_ID)]


def rules_for_ids(ids: Sequence[str]) -> List[Any]:
    """Instantiate a subset of rules by id; unknown ids raise ValueError.

    Ids may name module rules or project rules; the returned list mixes
    both kinds (``lint_paths`` splits them by type).
    """
    known = registry()
    selected: List[Any] = []
    for rule_id in ids:
        cls = known.get(rule_id.upper())
        if cls is None:
            raise ValueError(
                "unknown rule {!r}; known rules: {}".format(
                    rule_id, ", ".join(sorted(known))
                )
            )
        selected.append(cls())
    return selected
