"""Unit-suffix inference for the units-discipline rules (RL003/RL004).

This codebase encodes physical units in identifier suffixes —
``power_w``, ``energy_j``, ``horizon_s``, ``mem_gb``,
``violation_pct`` — a convention the power/telemetry/analysis layers
follow throughout.  The table here maps those suffixes to units and
dimensions, and :class:`UnitInferencer` performs a small, per-scope
symbol-table inference so that ::

    total = idle_power_w + active_power_w   # total : watt
    oops = total + resume_energy_j          # RL003: watt + joule

is caught even though ``total`` itself carries no suffix.

The inference is deliberately shallow: straight-line assignments of
unit-typed expressions to plain names, within one function (or module)
scope.  Anything it cannot prove has unit ``None`` and never conflicts —
the rules only fire on *provable* mixes, keeping false positives near
zero.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: suffix token -> physical dimension.  Two identifiers conflict when
#: their suffix tokens differ (``_s`` + ``_h`` needs an explicit
#: conversion even though both are time).
UNIT_SUFFIXES: Dict[str, str] = {
    # power
    "w": "power",
    "kw": "power",
    # energy
    "j": "energy",
    "kj": "energy",
    "wh": "energy",
    "kwh": "energy",
    # time
    "s": "time",
    "ms": "time",
    "us": "time",
    "h": "time",
    # memory / storage
    "gb": "memory",
    "mb": "memory",
    "kb": "memory",
    "tb": "memory",
    # dimensionless ratios
    "pct": "ratio",
    "frac": "ratio",
    # frequency
    "hz": "frequency",
    "ghz": "frequency",
}


def unit_of_identifier(name: str) -> Optional[str]:
    """The unit suffix of an identifier, or None.

    Only the component after the final underscore counts, so ``n_vms``
    (suffix ``vms``) and ``headroom`` carry no unit, while
    ``shortfall_core_s`` is in (core-)seconds.
    """
    if "_" not in name:
        return None
    suffix = name.rsplit("_", 1)[1].lower()
    return suffix if suffix in UNIT_SUFFIXES else None


def dimension_of(unit: str) -> str:
    return UNIT_SUFFIXES.get(unit, "unknown")


def describe(unit: str) -> str:
    """Human label for a unit suffix, e.g. ``'_w' (power)``."""
    return "'_{}' ({})".format(unit, dimension_of(unit))


#: builtins that preserve the unit of their (first) argument
_UNIT_PRESERVING_CALLS = frozenset({"abs", "min", "max", "sum", "round", "float"})


class UnitInferencer:
    """Per-scope unit inference over expressions.

    ``table`` maps plain local names to units learned from earlier
    assignments in the same scope; :meth:`learn_assign` feeds it.
    """

    def __init__(self) -> None:
        self.table: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Symbol table
    # ------------------------------------------------------------------

    def learn_assign(self, node: ast.AST) -> None:
        """Record ``name = <unit-typed expr>`` style assignments."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            return
        if not isinstance(target, ast.Name):
            return
        explicit = unit_of_identifier(target.id)
        if explicit is not None:
            # The suffix wins; no table entry needed.
            return
        unit = self.infer(value)
        if unit is not None:
            self.table[target.id] = unit
        else:
            # Re-assignment to something un-unit-typed clears the entry.
            self.table.pop(target.id, None)

    # ------------------------------------------------------------------
    # Expression inference
    # ------------------------------------------------------------------

    def infer(self, node: ast.expr) -> Optional[str]:
        """The unit of an expression, or None when unprovable."""
        if isinstance(node, ast.Name):
            unit = unit_of_identifier(node.id)
            if unit is not None:
                return unit
            return self.table.get(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_identifier(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                left = self.infer(node.left)
                right = self.infer(node.right)
                if left is not None and left == right:
                    return left
                return None
            # Multiplication/division is a conversion: the result's unit
            # is intentionally unknown (w * s -> joules, j / s -> watts).
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _UNIT_PRESERVING_CALLS
                and node.args
            ):
                units = {self.infer(arg) for arg in node.args}
                units.discard(None)
                if len(units) == 1:
                    return units.pop()
            return None
        if isinstance(node, ast.IfExp):
            body = self.infer(node.body)
            orelse = self.infer(node.orelse)
            if body is not None and body == orelse:
                return body
            return None
        return None


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


#: An arithmetic or comparison node and the units of its operands.
UnitOperands = Tuple[ast.expr, List[Optional[str]]]


def unit_operands(body: Sequence[ast.stmt]) -> List[UnitOperands]:
    """Every ``+``/``-`` and every comparison, with its operands' units.

    One scoped walk (:func:`iter_scoped_exprs`): a ``BinOp`` carries the
    units of its left and right operand, a ``Compare`` those of its left
    operand and each comparator, each inferred with the unit table live
    where the node sits.  RL003 and RL004 both read this list.
    """
    found: List[UnitOperands] = []
    for node, inferencer in iter_scoped_exprs(body):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            found.append((node, [inferencer.infer(node.left), inferencer.infer(node.right)]))
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            found.append((node, [inferencer.infer(o) for o in operands]))
    return found
