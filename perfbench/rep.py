"""One repetition of a workload, in the fresh interpreter it was started in.

Run by ``run.py``; prints one JSON object as its last line::

    python3 perfbench/rep.py --workload fleet-2k --seed 7 --work DIR [--traced] [--tiny]

Exit code 0 means the repetition ran (its operations may still have
failed; the JSON says so), 3 means the span guard tripped.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Sequence

import spans
import workloads

#: Iterations of the fixed pure-Python loop timed before each repetition.
LOOP_ITERATIONS = 1_000_000


def loop_ms() -> float:
    """Wall of a fixed pure-Python loop: how fast this machine is right now."""
    t0 = spans.clock()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return (spans.clock() - t0) * 1000.0


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_rep(
    name: str,
    seed: int,
    tiny: bool,
    traced: bool,
    work: Path,
    drop: Sequence[str] = (),
) -> Dict[str, Any]:
    """Run one repetition; raises :class:`spans.SpanGuardError` on a dead hook.

    ``drop`` puts the named originals back after installation, which is
    how a renamed callee looks to the benchmark (used by the self-test).
    """
    workload = workloads.WORKLOADS[name]
    size = workload.tiny if tiny else workload.full
    spill = work / "spill"
    spill.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(spill_dir=spill)
    tracer.install(list(workload.hooks if traced else workload.setup_hooks))
    for hook in drop:
        tracer.remove(hook)
    try:
        outcome = workload.run(seed, size, work, tracer, traced)
    finally:
        tracer.uninstall()
    result: Dict[str, Any] = asdict(outcome)
    if outcome.failed == 0:
        dead = tracer.never_called()
        if dead:
            raise spans.SpanGuardError(
                "span(s) never called: {} (renamed, moved or re-imported callee?)".format(
                    ", ".join(dead)
                )
            )
    if traced:
        result["spans"] = tracer.snapshot()
    return result


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    # Timed on both sides of the workload: the machine's speed drifts
    # over seconds to minutes, and run.py scales timings by this wall.
    loops = [loop_ms()]
    try:
        result = run_rep(args.workload, args.seed, args.tiny, args.traced, args.work)
    except spans.SpanGuardError as exc:
        print("span guard: {}".format(exc), file=sys.stderr)
        return 3
    result["rss_mb"] = peak_rss_mb()
    loops.append(loop_ms())
    result["loop_ms"] = sum(loops) / len(loops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
