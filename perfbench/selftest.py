"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that

1. every metric named in ``BENCHMARK.json`` is printed with its unit, on
   every workload, untraced and traced;
2. non-default seeds run with ``failed_frac`` 0 (no failed operation);
3. the span guard trips when one wrapper is removed;
4. a directory holding only ``BENCHMARK.json`` and the benchmark exits
   non-zero without printing a result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selftest"

#: Seeds other than every workload's default.
SEEDS = {"fleet-2k": 11, "diurnal-chaos": 12, "campaign": 13}


def run_bench(root: Path, args: List[str]) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py")] + args,
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> Optional[Dict[str, Any]]:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_workloads(declared: Dict[str, Any], problems: List[str]) -> None:
    for workload, seed in SEEDS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, [
                "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny",
            ])
            where = "{} seed {} trace {}".format(workload, seed, trace)
            result = last_json(done.stdout)
            if done.returncode != 0 or result is None:
                problems.append("{}: exit {}: {}".format(
                    where, done.returncode, done.stderr.strip()[-300:]))
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("{}: correct={} failed={} of {}".format(
                    where, result["correct"], result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append("{}: metrics differ from BENCHMARK.json: missing {}, "
                                "extra {}, unit mismatch {}".format(
                                    where, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(n for n in want if n in got and got[n] != want[n])))
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append("{}: non-numeric values for {}".format(where, bad))
            print("ok" if not problems else "..", where, flush=True)


def check_guard(problems: List[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import rep
    import spans

    work = WORK / "guard"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rep.run_rep("fleet-2k", SEEDS["fleet-2k"], tiny=True, traced=True, work=work,
                    drop=["workload.build_fleet"])
    except spans.SpanGuardError as exc:
        if "workload.build_fleet" not in str(exc):
            problems.append("span guard named the wrong hook: {}".format(exc))
        else:
            print("ok span guard trips:", exc)
    else:
        problems.append("span guard did not trip with the build_fleet wrapper removed")


def check_bare_directory(problems: List[str]) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(bare, ["--workload", "fleet-2k", "--seed", "7", "--seconds", "1",
                            "--trace", "0"])
    if done.returncode == 0 or last_json(done.stdout) is not None:
        problems.append("bare directory: exit {} with output {!r}".format(
            done.returncode, done.stdout[-200:]))
    else:
        print("ok bare directory exits {}".format(done.returncode))
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    check_workloads(declared, problems)
    check_guard(problems)
    check_bare_directory(problems)
    shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test {}".format("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
