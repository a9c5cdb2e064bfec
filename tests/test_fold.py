"""Totals fold left from the int 0 on every interpreter.

Python 3.12's builtin ``sum()`` over floats is compensated (Neumaier)
summation, so a total can differ between interpreters.  ``src/repro``
totals with :func:`repro.fold.left_sum` instead, the fold ``sum()`` ran
through 3.11.
"""

import ast
from pathlib import Path

from repro.datacenter import Cluster
from repro.fold import left_sum
from repro.migration.engine import MigrationEngine
from repro.prototype import PROTOTYPE_BLADE
from repro.sim import Environment

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_no_builtin_sum_in_src():
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                calls.append("{}:{}".format(path.relative_to(SRC), node.lineno))
    assert calls == [], "builtin sum() totals differ on 3.12; use repro.fold.left_sum"


def test_left_sum_is_the_left_fold():
    assert repr(left_sum([1e16, 1.0, 1.0])) == "1e+16"  # 3.12's sum(): 1.0000000000000002e16
    assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3
    assert left_sum(1 for _ in range(3)) == 3
    empty = left_sum([])
    assert empty == 0 and type(empty) is int


def test_cluster_energy_is_the_left_fold():
    env = Environment()
    cluster = Cluster.homogeneous(env, PROTOTYPE_BLADE, 3)
    for host, joules in zip(cluster.hosts, (1e16, 1.0, 1.0)):
        host.machine.meter._energy_j = joules
    assert cluster.energy_j() == (0 + 1e16 + 1.0) + 1.0 == 1e16


def test_empty_downtime_total_stays_an_int():
    # An AlwaysOn report prints ``"migration_downtime_s": 0``.
    total = MigrationEngine(Environment()).total_downtime_s()
    assert total == 0 and type(total) is int
