"""Benchmark of the simulator: one named workload at one seed.

    python3 perfbench/run.py --workload fleet-2k --seed 7 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (``rep.py``), so memory and
garbage from one never reach the next.  Repetitions continue until the
next one would end past ``--seconds`` (at least two, whose outputs must
agree bit for bit).  All timings are host wall time.

With ``--trace 0`` the last line carries the end-to-end metrics, medians
over the repetitions:

* ``setup_s`` -- wall of ``build_scenario`` (fleet, placement, wiring),
  timed by the benchmark: the call inside ``run_scenario`` on fleet-2k
  and diurnal-chaos, the median of the specs' calls inside the pool on
  campaign.
* ``wall_ms_per_host_hour`` -- wall of the workload's operation divided
  by simulated host-hours, times 1000.  fleet-2k: ``run_scenario``;
  diurnal-chaos: ``run_scenario`` + ``validate_trace`` + ``trace_hash``;
  campaign: the cold ``run_scenarios`` sweep (its ``sweep_s``).
* ``peak_rss_mb`` -- high-water RSS of the repetition's process; on
  campaign the larger of it and its largest pool worker.

The two timings are scaled to a fixed machine speed: each repetition's
wall is multiplied by ``REFERENCE_LOOP_MS`` over the wall of a fixed
pure-Python loop timed before and after it in the same process.  The
machine this was written on changed speed by up to 2x for minutes at a
time, which no number of repetitions averages out; the loop moves with
it.  Their unscaled medians are per-layer metrics (``unscaled.*``).

With ``--trace 1`` the run first makes untraced repetitions, then one
traced repetition whose spans (``spans.py``) give the per-layer metrics,
plus ``resume_s``, ``sweep_s`` and ``warm_s`` from the untraced ones and
the tracing overhead.  Layer metrics that a workload does not exercise
read 0, and so does a ``.p90`` over fewer than 100 calls.

Metric names and units come from ``BENCHMARK.json``.  Every run prints
the machine (cores, Python, numpy, commit, source digest, load average)
and the loop's wall per repetition, and writes its full record to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import workloads
from spans import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".perfbench"

#: Repetitions an untraced run makes at least; repeats must agree.
MIN_REPS = 2
#: No repetition starts that would end past this wall, and a repetition
#: still running at KILL_AT_S is killed: a run must end within 180 s.
RUN_CAP_S = 160.0
KILL_AT_S = 175.0
#: A traced repetition's wall over an untraced one, for planning only.
TRACED_COST = 1.4
#: A p90 is reported when at least this many calls lie beyond it.
TAIL_SAMPLES = 10
#: End-to-end timings are scaled to the machine speed at which the fixed
#: loop of ``rep.py`` takes this long.
REFERENCE_LOOP_MS = 100.0


class GuardTripped(RuntimeError):
    pass


def declared_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """End-to-end and per-layer metric names with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end, layer = ({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))
    return end, layer


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------


def source_digest() -> str:
    """sha256 over the simulator's source files: the commit, without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.decode().strip() or "none"


def machine() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": workloads.usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------


def run_child(cmd: List[str], env: Dict[str, str], timeout: float) -> Tuple[Optional[int], str, str]:
    """Run one repetition in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    code: Optional[int] = None
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        out, _ = proc.communicate()
        err = "timed out after {:.0f} s".format(timeout).encode()
    finally:
        # Pool workers share the session: none may outlive the repetition.
        kill_group(proc.pid)
        if proc.poll() is None:
            proc.wait()
    return code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace")


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Runner:
    def __init__(self, args: argparse.Namespace, workload: workloads.Workload, seed: int) -> None:
        self.args = args
        self.workload = workload
        self.seed = seed
        self.start = clock()
        self.work = RECORDS / "work-{}".format(os.getpid())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(self.work / "tmp")
        self.env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        for name in ("REPRO_NO_CACHE", "REPRO_WORKERS"):
            self.env.pop(name, None)
        self.reps: List[Dict[str, Any]] = []

    def elapsed(self) -> float:
        return clock() - self.start

    def rep(self, traced: bool) -> Dict[str, Any]:
        index = len(self.reps) + 1
        work = self.work / "rep{}".format(index)
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        work.mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", self.workload.name, "--seed", str(self.seed), "--work", str(work),
        ]
        if traced:
            cmd.append("--traced")
        if self.args.tiny:
            cmd.append("--tiny")
        t0 = clock()
        code, out, err = run_child(cmd, self.env, KILL_AT_S - self.elapsed())
        wall = clock() - t0
        shutil.rmtree(work, ignore_errors=True)
        if code == 3:
            raise GuardTripped(err.strip())
        result: Optional[Dict[str, Any]] = None
        lines = out.strip().splitlines()
        if code == 0 and lines:
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
        if result is None:
            tail = (err.strip().splitlines() or ["no output"])[-1]
            result = {
                "attempted": self.workload.ops, "failed": self.workload.ops,
                "errors": ["repetition exited {}: {}".format(code, tail)],
                "op_s": None, "setup_s": [], "digest": "",
            }
        result["index"] = index
        result["traced"] = traced
        result["wall_s"] = wall
        self.reps.append(result)
        return result

    def run(self) -> None:
        seconds = self.args.seconds
        traced_share = TRACED_COST if self.args.trace else 0.0
        floor = 1 if self.args.trace else MIN_REPS
        while True:
            walls = [r["wall_s"] for r in self.reps]
            mean = statistics.mean(walls) if walls else 0.0
            next_end = self.elapsed() + mean * (1.0 + traced_share)
            if next_end > RUN_CAP_S:
                break
            if len(self.reps) >= floor and next_end > seconds:
                break
            self.rep(traced=False)
        if self.args.trace:
            self.rep(traced=True)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile_ms(durations: Sequence[float], q: int) -> float:
    """The q-th percentile in ms (50 or 90).

    A p50 needs one call.  A p90 needs ten calls beyond it, so it reads
    0 below 100 calls.
    """
    needed = 1 if q == 50 else TAIL_SAMPLES * 100 // (100 - q)
    if len(durations) < needed:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, (len(ordered) * q) // 100)] * 1000.0


def timings(reps: List[Dict[str, Any]], scale: bool) -> Tuple[List[float], List[float]]:
    """Each completed repetition's set-up wall (median of its calls) and
    operation wall, scaled to ``REFERENCE_LOOP_MS`` when ``scale``."""
    setup: List[float] = []
    ops: List[float] = []
    for r in reps:
        if r.get("op_s") is None:
            continue
        factor = REFERENCE_LOOP_MS / r["loop_ms"] if scale else 1.0
        ops.append(r["op_s"] * factor)
        if r["setup_s"]:
            setup.append(median(r["setup_s"]) * factor)
    return setup, ops


def end_to_end(untraced: List[Dict[str, Any]], host_hours: float) -> Dict[str, float]:
    setup, ops = timings(untraced, scale=True)
    return {
        "setup_s": median(setup),
        "wall_ms_per_host_hour": median(ops) * 1000.0 / host_hours,
        "peak_rss_mb": median([r["rss_mb"] for r in untraced if "rss_mb" in r]),
    }


def per_layer(
    traced: Dict[str, Any],
    untraced: List[Dict[str, Any]],
    host_hours: float,
    attempted: int,
    failed: int,
) -> Dict[str, float]:
    spans = traced.get("spans") or {
        "calls": {}, "total_s": {}, "self_s": {}, "durations": {}, "counts": {}
    }
    calls = spans["calls"]
    total = spans["total_s"]
    own = spans["self_s"]
    kept = spans["durations"]
    counts: Dict[str, float] = dict(traced.get("counts") or {})

    def c(name: str) -> float:
        return counts.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ticks = kept.get("sampler.tick", [])
    rounds = kept.get("plane.round", [])
    specs = kept.get("parallel.spec", [])
    requested = c("plane.wakes_requested")
    parks = c("plane.parks_completed")
    started = c("migration.started")
    setup, ops = timings(untraced, scale=False)
    # Both sides scaled: the machine's drift between them is of the order
    # of the overhead itself.
    timed = [r["timed_s"] * REFERENCE_LOOP_MS / r["loop_ms"]
             for r in untraced if r.get("op_s") is not None]
    metrics = {
        "workload.build_fleet_s": total.get("workload.build_fleet", 0.0),
        "runner.placement_s": total.get("runner.placement", 0.0),
        "runner.setup_other_s": own.get("runner.build_scenario", 0.0),
        "runner.finalize_s": total.get("runner.finalize", 0.0),
        "sim.run_s": total.get("sim.run", 0.0),
        "sim.events": spans["counts"].get("sim.run.events_processed", 0),
        "sim.self_s": own.get("sim.run", 0.0),
        "sampler.ticks": calls.get("sampler.tick", 0),
        "sampler.tick_s": total.get("sampler.tick", 0.0),
        "sampler.tick_ms.p50": percentile_ms(ticks, 50),
        "sampler.tick_ms.p90": percentile_ms(ticks, 90),
        "power.meter_writes": calls.get("power.set_power", 0),
        "plane.rounds": calls.get("plane.round", 0),
        "plane.round_s": total.get("plane.round", 0.0),
        "plane.round_ms.p50": percentile_ms(rounds, 50),
        "plane.round_ms.p90": percentile_ms(rounds, 90),
        "plane.watchdog_s": total.get("plane.watchdog", 0.0),
        "plane.admit_s": total.get("plane.admit", 0.0),
        "plane.admits": calls.get("plane.admit", 0),
        "plane.wake_success": ratio(requested - c("plane.wake_failures"), requested),
        "plane.park_success": ratio(parks, parks + c("plane.evacuations_aborted")),
        "migration.admit_s": total.get("migration.migrate", 0.0),
        "migration.success": ratio(c("migration.completed"), started),
        "trace.events": c("trace.events"),
        "trace.mb": c("trace.mb"),
        "trace.hash_s": total.get("trace.hash", 0.0),
        "validate.s": total.get("validate.trace", 0.0),
        "checkpoint.save_s": total.get("checkpoint.save", 0.0),
        "checkpoint.mb": c("checkpoint.mb"),
        "checkpoint.load_s": total.get("checkpoint.load", 0.0),
        "checkpoint.restore_s": total.get("checkpoint.restore", 0.0),
        "parallel.specs": c("parallel.specs"),
        "parallel.artifact_kb": c("parallel.artifact_kb"),
        "parallel.spec_s.p50": percentile_ms(specs, 50) / 1000.0,
        "cache.put_s": total.get("cache.put", 0.0),
        "cache.get_s": total.get("cache.get", 0.0),
        "cache.mb": c("cache.mb"),
        "resume_s": median([r["resume_s"] for r in untraced if r.get("resume_s") is not None]),
        "sweep_s": median([r["sweep_s"] for r in untraced if r.get("sweep_s") is not None]),
        "warm_s": median([x for r in untraced for x in r.get("warm_s", [])]),
        "failed_frac": ratio(failed, attempted),
        "bench.trace_overhead_s": (
            traced["timed_s"] * REFERENCE_LOOP_MS / traced["loop_ms"] - median(timed)
            if timed and "loop_ms" in traced else 0.0
        ),
        "machine.loop_ms": median([r["loop_ms"] for r in untraced + [traced] if "loop_ms" in r]),
        "unscaled.setup_s": median(setup),
        "unscaled.wall_ms_per_host_hour": median(ops) * 1000.0 / host_hours,
    }
    metrics.update((name, c(name)) for name in workloads.PLANE_COUNTERS)
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def fmt(value: Optional[float], width: int = 8, digits: int = 3) -> str:
    if value is None:
        return "-".rjust(width)
    return "{:{w}.{d}f}".format(value, w=width, d=digits)


def print_reps(reps: List[Dict[str, Any]]) -> None:
    print("rep kind      wall_s loop_ms  setup_s     op_s resume_s  sweep_s   warm_s  rss_MiB fail")
    for r in reps:
        warm = r.get("warm_s") or []
        setup = r.get("setup_s") or []
        print(
            "{:>3} {:<8} {} {} {} {} {} {} {} {} {:>4}".format(
                r["index"], "traced" if r["traced"] else "untraced",
                fmt(r["wall_s"], 7, 2), fmt(r.get("loop_ms"), 7, 1),
                fmt(median(setup) if setup else None), fmt(r.get("op_s")),
                fmt(r.get("resume_s")), fmt(r.get("sweep_s")),
                fmt(median(warm) if warm else None), fmt(r.get("rss_mb"), 8, 1),
                r["failed"],
            )
        )
        for error in r.get("errors", []):
            print("    error: {}".format(error))


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's legacy seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure for about this long (at least two repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced repetition and print per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (no reference outputs apply)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator source under {}".format(ROOT / "src"), file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    info = machine()
    size = workload.tiny if args.tiny else workload.full
    print("perfbench {} seed={} trace={} seconds={:g} size={}x{}x{:g}h".format(
        workload.name, seed, args.trace, args.seconds, size.hosts, size.vms, size.hours))
    print("machine: nproc={nproc} usable_cores={usable_cores} python={python} numpy={numpy} "
          "commit={commit} src_sha256={src_sha256:.16} loadavg={loadavg}".format(**info))
    runner = Runner(args, workload, seed)
    try:
        runner.run()
    except GuardTripped as exc:
        print(str(exc), file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    reps = runner.reps
    untraced = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = [r["digest"] for r in reps if r["failed"] == 0]
    for r in reps:
        if r["failed"] == 0 and r["digest"] != digests[0]:
            r.setdefault("errors", []).append("outputs differ from repetition 1's")
            failed += r["attempted"]
    host_hours = next((r["host_hours"] for r in reps if "host_hours" in r), 1.0)
    print_reps(reps)
    if workload.name == "campaign":
        widths = ["{}={:g}".format("traced" if r["traced"] else "untraced",
                                   r["counts"]["parallel.width"])
                  for r in reps if "parallel.width" in r.get("counts", {})]
        print("campaign pool width: {} (worker spans return through spill files)".format(
            ", ".join(sorted(set(widths)))))

    end_units, layer_units = declared_units()
    if args.trace:
        metrics = per_layer(reps[-1], untraced, host_hours, attempted, failed)
        units = layer_units
    else:
        metrics = end_to_end(untraced, host_hours)
        units = end_units
    unknown = sorted(set(units) - set(metrics))
    if unknown:
        print("perfbench: BENCHMARK.json names metrics this benchmark does not compute: {}"
              .format(", ".join(unknown)), file=sys.stderr)
        return 2
    ops = [r["op_s"] for r in untraced if r.get("op_s") is not None]
    print("{} untraced repetition(s), {} operation(s), {} failed: failed_frac {:g}".format(
        len(untraced), attempted, failed, failed / attempted if attempted else 0.0))
    if ops:
        print("operation wall median {:.4f} s over {} repetition(s), {:g} host-hours".format(
            median(ops), len(ops), host_hours))
    for name, unit in units.items():
        print("{:<32} {:>16.6g} {}".format(name, metrics[name], unit))

    RECORDS.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": seed, "trace": args.trace, "tiny": args.tiny,
        "seconds": args.seconds, "machine": info, "metrics": metrics,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    (RECORDS / "{}-seed{}-trace{}.json".format(workload.name, seed, args.trace)).write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
