"""Totals that do not depend on the interpreter.

Builtin ``sum()`` over floats is compensated (Neumaier) summation from
Python 3.12 on, so ``repro`` totals with :func:`left_sum`, the fold
``sum()`` ran through 3.11.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable, TypeVar

_Number = TypeVar("_Number", int, float)


def left_sum(values: Iterable[_Number]) -> _Number:
    """``((0 + v0) + v1) + ...``: an empty total is the int ``0``."""
    return reduce(add, values, 0)
