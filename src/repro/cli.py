"""Command-line interface.

Gives operators the paper's experiments without writing Python::

    python -m repro.cli characterize
    python -m repro.cli run --policy S3-PM --hosts 16 --vms 64 --hours 24
    python -m repro.cli run --policy S3-PM --migration-fail-rate 0.1 \
        --telemetry-staleness-s 60 --out run.jsonl
    python -m repro.cli run --policy S3-PM --plane neat --plane-delay-s 120 \
        --plane-dropout 0.2 --out run.jsonl
    python -m repro.cli compare --hosts 12 --vms 48 --hours 24 --workers 4
    python -m repro.cli compare --policies S3-PM \
        --wake-failure-rate 0,0.05,0.1,0.2 --permanent-fraction 0.2 --mttr-h 4
    python -m repro.cli trace check run.jsonl
    python -m repro.cli fuzz --campaign 100 --seed 7 --json
    python -m repro.cli fuzz shrink tests/corpus/behavior-safe-mode.json
    python -m repro.cli policies
    python -m repro.cli cache info

``run`` and ``compare`` take one set of scenario flags: a scenario is
written the same way whichever verb runs it.  ``run --out FILE`` traces
the run, writes the trace and certifies it.  ``compare`` runs every
policy at every ``--wake-failure-rate`` in its list.  The parser checks
the range of every number ``run``, ``compare`` and ``branch`` take, so a
bad value is a usage error (exit 2) before anything runs or is written.

Comparisons fan out over a process pool (``--workers``) and memoize
finished scenarios in the disk result cache (disable per-invocation with
``--no-cache``, globally with ``REPRO_NO_CACHE=1``).  ``--profile``
prints a cProfile hot-spot table for the in-process run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, List, Optional

from repro.analysis import render_series, render_table
from repro.core import (
    ManagerConfig,
    ResultCache,
    ScenarioSpec,
    run_scenario,
    run_scenarios,
)
from repro.core.atomicio import atomic_write_json, atomic_write_text
from repro.core.cache import default_cache_dir
from repro.core.parallel import resolve_workers
from repro.core.policies import POLICIES, policy_by_name
from repro.datacenter import FaultModel, MigrationFaultModel, RepairModel
from repro.prototype import (
    PROTOTYPE_BLADE,
    breakeven_curve,
    format_characterization_table,
    make_prototype_blade_profile,
)
from repro.telemetry import SimReport, StalenessModel, TraceBuffer
from repro.telemetry.trace import jsonl_hash
from repro.workload import FleetSpec
from repro.workload.traces import TRACE_STEP_S


def _ranged(parse: Callable, test: Callable, wants: str) -> Callable:
    """An argparse ``type=``: ``parse`` the text, then refuse a value
    that fails ``test``.

    argparse turns the refusal into a usage error that names the flag
    (exit 2), before any scenario is built.  NaN fails every ``test``
    below, and the float ones also refuse infinity.
    """

    def convert(text: str):
        value = parse(text)
        if not test(value):
            raise argparse.ArgumentTypeError("{} is not {}".format(text, wants))
        return value

    # argparse names the type in its "invalid <type> value" message.
    convert.__name__ = parse.__name__
    return convert


_COUNT = _ranged(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _ranged(int, lambda v: v >= 0, "an integer >= 0")
_NON_NEGATIVE = _ranged(float, lambda v: 0.0 <= v < math.inf, "a number >= 0")
_POSITIVE = _ranged(float, lambda v: 0.0 < v < math.inf, "a number > 0")
_RATE = _ranged(float, lambda v: 0.0 <= v < 1.0, "a probability in [0, 1)")
_FRACTION = _ranged(float, lambda v: 0.0 <= v <= 1.0, "a fraction in [0, 1]")
#: ``--hours`` of a scenario: its fleet's traces need one sample.
_HOURS = _ranged(
    float,
    lambda v: TRACE_STEP_S <= v * 3600.0 < math.inf,
    "a number of hours covering one {:g} s trace sample".format(TRACE_STEP_S),
)


def _rates(text: str) -> List[float]:
    """``compare --wake-failure-rate``: a comma-separated list of rates."""
    rates = [_RATE(item) for item in text.split(",") if item.strip()]
    if not rates:
        raise argparse.ArgumentTypeError("{!r} lists no rate".format(text))
    return rates


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """The scenario flags ``run`` and ``compare`` share.

    Each verb adds its own ``--wake-failure-rate``: one value for
    ``run``, a list for ``compare``.  Every model flag defaults to the
    library's "off" value.
    """
    parser.add_argument("--hosts", type=_COUNT, default=16, help="cluster size")
    parser.add_argument("--vms", type=_COUNT, default=64, help="fleet size")
    parser.add_argument("--hours", type=_HOURS, default=24.0, help="simulated hours")
    parser.add_argument("--seed", type=_SEED, default=0, help="RNG seed")
    parser.add_argument(
        "--churn",
        type=_NON_NEGATIVE,
        default=0.0,
        help="VM arrivals per hour (0 = off)",
    )
    parser.add_argument(
        "--shared-fraction",
        type=_FRACTION,
        default=0.3,
        help="fraction of demand driven by one cluster-wide signal",
    )
    parser.add_argument(
        "--wake-latency",
        type=_NON_NEGATIVE,
        default=None,
        help="override the S3 resume latency in seconds",
    )
    parser.add_argument(
        "--permanent-fraction",
        type=_FRACTION,
        default=0.0,
        help="fraction of wake failures that take the host out of service "
        "(default: 0)",
    )
    parser.add_argument(
        "--mttr-h",
        type=_NON_NEGATIVE,
        default=0.0,
        help="mean operator repair time in hours (default: 0, no repair)",
    )
    parser.add_argument(
        "--migration-fail-rate",
        type=_RATE,
        default=0.0,
        help="probability a migration fails mid-copy (default: 0)",
    )
    parser.add_argument(
        "--telemetry-staleness-s",
        type=_NON_NEGATIVE,
        default=0.0,
        help="publication delay of the manager's telemetry view in seconds "
        "(default: 0)",
    )
    parser.add_argument(
        "--telemetry-dropout",
        type=_RATE,
        default=0.0,
        help="probability an individual sampler tick is lost (default: 0)",
    )
    parser.add_argument(
        "--plane",
        choices=["centralized", "neat"],
        default="centralized",
        help="management-plane architecture: the monolithic decision loop "
        "or the decentralized detector/arbiter split (default: centralized)",
    )
    parser.add_argument(
        "--plane-delay-s",
        type=_NON_NEGATIVE,
        default=0.0,
        help="neat mode: delivery delay of the detector request channel "
        "in seconds (default: 0)",
    )
    parser.add_argument(
        "--plane-dropout",
        type=_RATE,
        default=0.0,
        help="neat mode: probability a detector report is lost in the "
        "request channel (default: 0)",
    )


#: ``--json`` help of the verbs that print report tables.
_JSON_HELP = "emit the report(s) as JSON instead of a table"


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile hot-spot table to stderr and write a JSON "
        "profile artifact (forces in-process serial execution)",
    )
    parser.add_argument(
        "--profile-json",
        default="repro_profile.json",
        metavar="PATH",
        help="where --profile writes its machine-readable artifact "
        "(top-25 cumulative functions; default: %(default)s)",
    )


def _policies(text: str) -> List[ManagerConfig]:
    """``--policies``: the presets a comma list names (at least one)."""
    try:
        configs = [policy_by_name(n.strip()) for n in text.split(",") if n.strip()]
    except ValueError:
        configs = []
    if not configs:
        raise argparse.ArgumentTypeError(
            "{!r} must name presets from {}".format(text, ", ".join(sorted(POLICIES)))
        )
    return configs


def _plane_config(config, args: argparse.Namespace):
    """Apply the ``--plane`` override family to a policy preset."""
    overrides = {}
    if args.plane != config.plane:
        overrides["plane"] = args.plane
    if args.plane_delay_s > 0:
        overrides["neat_request_delay_s"] = args.plane_delay_s
    if args.plane_dropout > 0:
        overrides["neat_request_dropout"] = args.plane_dropout
    return config.with_overrides(**overrides) if overrides else config


def _scenario_kwargs(args: argparse.Namespace, wake_failure_rate: float) -> dict:
    """``run_scenario``'s keyword arguments for the scenario flags.

    A fault or telemetry model is built only when one of its rates or
    delays is above 0; otherwise the argument is left out, so a scenario
    without one keeps its cache key and its trace.
    """
    horizon_s = args.hours * 3600.0
    kwargs = dict(
        n_hosts=args.hosts,
        horizon_s=horizon_s,
        seed=args.seed,
        fleet_spec=FleetSpec(
            n_vms=args.vms,
            horizon_s=min(horizon_s, 7 * 86_400.0),
            shared_fraction=args.shared_fraction,
        ),
        churn_rate_per_h=args.churn,
    )
    if args.wake_latency is not None:
        kwargs["profile"] = make_prototype_blade_profile(
            resume_latency_s=args.wake_latency
        )
    if wake_failure_rate > 0 or args.migration_fail_rate > 0:
        repair = RepairModel(mttr_s=args.mttr_h * 3600.0) if args.mttr_h > 0 else None
        kwargs["fault_model"] = FaultModel(
            wake_failure_rate=wake_failure_rate,
            permanent_fraction=args.permanent_fraction,
            repair=repair,
            migration=(
                MigrationFaultModel(failure_rate=args.migration_fail_rate)
                if args.migration_fail_rate > 0
                else None
            ),
        )
    if args.telemetry_staleness_s > 0 or args.telemetry_dropout > 0:
        kwargs["telemetry_model"] = StalenessModel(
            delay_s=args.telemetry_staleness_s,
            dropout_rate=args.telemetry_dropout,
        )
    return kwargs


def _profiled(fn, json_path: Optional[str] = None):
    """Run ``fn()`` under cProfile; print hot spots + wall time to stderr.

    When ``json_path`` is given, also write a machine-readable artifact —
    the top 25 functions by cumulative time — so hot-path regressions are
    diffable across commits without parsing the pstats text dump.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    out = fn()
    profiler.disable()
    elapsed = time.perf_counter() - started
    stats = pstats.Stats(profiler, stream=io.StringIO())
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(15)
    print(buf.getvalue(), file=sys.stderr)
    print("wall-clock: {:.3f} s".format(elapsed), file=sys.stderr)
    if json_path:
        rows = sorted(
            stats.stats.items(),  # type: ignore[attr-defined]
            key=lambda item: item[1][3],
            reverse=True,
        )[:25]
        artifact = {
            "wall_clock_s": elapsed,
            "total_calls": stats.total_calls,  # type: ignore[attr-defined]
            "top_cumulative": [
                {
                    "function": "{}:{}({})".format(*func),
                    "ncalls": nc,
                    "primitive_calls": cc,
                    "tottime_s": tt,
                    "cumtime_s": ct,
                }
                for func, (cc, nc, tt, ct, _callers) in rows
            ],
        }
        atomic_write_json(json_path, artifact)
        print("profile artifact: {}".format(json_path), file=sys.stderr)
    return out


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core import CheckpointError, resume_scenario
    from repro.telemetry.validate import validate_trace

    service_kwargs = dict(
        checkpoint_every_s=args.checkpoint_every_s,
        checkpoint_dir=args.checkpoint_dir,
        stream=args.stream,
    )
    if args.resume:
        # The checkpoint carries the full scenario (policy, fleet, RNG
        # state); the scenario-shape flags are ignored on purpose so a
        # resume cannot silently diverge from the run it continues.
        runner = lambda: resume_scenario(args.resume, **service_kwargs)  # noqa: E731
    else:
        config = _plane_config(policy_by_name(args.policy), args)
        kwargs = _scenario_kwargs(args, args.wake_failure_rate)
        kwargs.update(service_kwargs)
        kwargs["bounded_series"] = args.bounded
        kwargs["trace"] = bool(args.out)
        runner = lambda: run_scenario(config, **kwargs)  # noqa: E731
    try:
        if args.profile:
            result = _profiled(runner, json_path=args.profile_json)
        else:
            result = runner()
    except (CheckpointError, OSError, ValueError) as exc:
        print("repro run: {}".format(exc), file=sys.stderr)
        return 2
    if result.checkpoints is not None:
        print(
            "checkpoints: {} saved, {} boundary(ies) skipped, dir {}".format(
                len(result.checkpoints.saved),
                result.checkpoints.skipped,
                result.checkpoints.directory,
            ),
            file=sys.stderr,
        )
    outcome = None
    digest = None
    if args.out:
        buf = result.trace
        outcome = validate_trace(buf, report=result.report)
        digest = _write_trace(buf, args.out)
        print("wrote {} event(s) to {} (sha256 {})".format(len(buf), args.out, digest))
    if args.json:
        import repro

        payload = result.report.to_dict()
        payload["version"] = repro.__version__
        payload["seed"] = result.sampler.seed
        if outcome is not None:
            payload["trace_hash"] = digest
            payload["trace_check"] = outcome.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(SimReport.header())
        print(result.report.row())
        if args.timeline:
            for name in ("demand_cores", "active_hosts", "power_w"):
                print(render_series(result.sampler.series[name].points(), name=name))
        if outcome is not None:
            print(outcome.render_text())
    return 0 if outcome is None or outcome.ok else 1


def cmd_branch(args: argparse.Namespace) -> int:
    """Fan a warm checkpoint out across policy variants."""
    from repro.core import CheckpointError, branch_scenarios, read_manifest

    horizon_s = args.hours * 3600.0 if args.hours is not None else None
    try:
        manifest = read_manifest(args.checkpoint)
        results = branch_scenarios(
            args.checkpoint,
            args.policies,
            horizon_s=horizon_s,
            workers=args.workers,
            cache=not args.no_cache,
        )
    except (CheckpointError, OSError, ValueError) as exc:
        print("repro branch: {}".format(exc), file=sys.stderr)
        return 2
    reports = [artifacts.report for artifacts in results]
    if args.json:
        import repro

        payload = {
            "version": repro.__version__,
            "checkpoint": str(args.checkpoint),
            "checkpoint_sha256": manifest["sha256"],
            "branched_at_s": manifest.get("sim_time_s"),
            "results": [report.to_dict() for report in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        "branching {} (t = {:.0f} s, parent policy {}) across {} variant(s)".format(
            args.checkpoint,
            manifest.get("sim_time_s", float("nan")),
            manifest.get("policy", "?"),
            len(args.policies),
        ),
        file=sys.stderr,
    )
    print(SimReport.header())
    for report in reports:
        print(report.row())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run every ``--policies`` preset at every ``--wake-failure-rate``.

    Results come grouped by policy, in the order the flags list them.
    """
    rates = args.wake_failure_rate
    cells = [(config, rate) for config in args.policies for rate in rates]
    specs = [
        ScenarioSpec(_plane_config(config, args), kwargs=_scenario_kwargs(args, rate))
        for config, rate in cells
    ]
    try:
        workers = 1 if args.profile else resolve_workers(args.workers)
    except ValueError as exc:  # a bad REPRO_WORKERS
        print("repro compare: {}".format(exc), file=sys.stderr)
        return 2
    runner = lambda: run_scenarios(  # noqa: E731
        specs, workers=workers, cache=not args.no_cache
    )
    results = (
        _profiled(runner, json_path=args.profile_json)
        if args.profile
        else runner()
    )
    reports = [artifacts.report for artifacts in results]
    if args.json:
        import repro

        payload = {
            "version": repro.__version__,
            "seed": args.seed,
            "rates": rates,
            "results": [report.to_dict() for report in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(SimReport.header())
    for report in reports:
        print(report.row())
    base = reports[0].energy_kwh
    print()
    print(
        render_table(
            ["policy", "wake_failure_rate", "normalized_energy", "undelivered"],
            [
                [r.policy, rate, r.energy_kwh / base, r.violation_fraction]
                for (_config, rate), r in zip(cells, reports)
            ],
            title="normalized to {}".format(reports[0].policy),
        )
    )
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    print(format_characterization_table(PROTOTYPE_BLADE))
    print()
    gaps = [15, 30, 60, 120, 300, 600, 1800]
    curves = breakeven_curve(PROTOTYPE_BLADE, gaps)
    names = sorted(curves)
    rows = [
        [gap] + [curves[name][i][1] for name in names]
        for i, gap in enumerate(gaps)
    ]
    print(
        render_table(
            ["gap_s"] + names,
            rows,
            title="normalized energy vs idle gap (1.0 = stay idle)",
        )
    )
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(POLICIES):
        cfg = POLICIES[name]()
        rows.append(
            [
                name,
                "yes" if cfg.enable_power_mgmt else "no",
                cfg.park_state.value if cfg.enable_power_mgmt else "-",
                cfg.headroom,
                cfg.park_delay_rounds,
                cfg.predictor,
                "yes" if cfg.enable_dvfs else "no",
            ]
        )
    print(
        render_table(
            ["policy", "parking", "park_state", "headroom", "delay", "predictor",
             "dvfs"],
            rows,
            title="available policies",
        )
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the lint machinery is dev tooling, not needed for
    # the simulation fast path.
    from repro.tools.lint import (
        default_project_rules,
        default_rules,
        lint_paths,
        rules_for_ids,
    )

    if args.list_rules:
        rules = default_rules() + default_project_rules()
        rules.sort(key=lambda rule: rule.rule_id)
        print(
            render_table(
                ["rule", "title"],
                [[rule.rule_id, rule.title] for rule in rules],
                title="reprolint rules",
            )
        )
        return 0
    try:
        rules = rules_for_ids(args.rules.split(",")) if args.rules else None
        report = lint_paths(
            args.paths or ["src", "benchmarks"],
            rules=rules,
            exclude=tuple(args.exclude or ()),
        )
    except (FileNotFoundError, ValueError) as exc:
        print("repro lint: {}".format(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        print(report.render_sarif(rules or default_rules() + default_project_rules()))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_trace_check(args: argparse.Namespace) -> int:
    """``repro trace check FILE [--json]``: validate an existing trace file."""
    from repro.telemetry.trace import TraceError, read_trace
    from repro.telemetry.validate import validate_trace

    try:
        log = read_trace(args.path)
    except TraceError as exc:
        print("repro trace check: {}".format(exc), file=sys.stderr)
        return 2
    outcome = validate_trace(log)
    if args.json:
        payload = outcome.to_dict()
        payload["path"] = args.path
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(outcome.render_text())
    return 0 if outcome.ok else 1


def _write_trace(buf: TraceBuffer, path: str) -> str:
    """Write ``buf``'s JSONL to ``path`` atomically; returns its sha256.

    The trace is encoded once, for the file and for the hash.
    """
    text = buf.to_jsonl()
    atomic_write_text(path, text)
    return jsonl_hash(text)


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Grammar-driven fuzzing: run a campaign, or shrink one spec file."""
    if args.action == "shrink":
        return _cmd_fuzz_shrink(args)
    if args.path:
        print(
            "repro fuzz: unexpected positional {!r} (a spec file only goes "
            "with 'shrink')".format(args.path),
            file=sys.stderr,
        )
        return 2
    from repro.fuzz import run_campaign

    progress = None if args.json else lambda msg: print(msg, file=sys.stderr)
    try:
        summary = run_campaign(
            args.campaign,
            args.seed,
            workers=args.workers,
            cache=not args.no_cache,
            shrink=not args.no_shrink,
            max_shrink_evaluations=args.shrink_budget,
            progress=progress,
        )
    except ValueError as exc:
        print("repro fuzz: {}".format(exc), file=sys.stderr)
        return 2
    payload = json.dumps(summary.to_json_dict(), indent=2, sort_keys=True)
    if args.out:
        atomic_write_text(args.out, payload + "\n")
        print("wrote campaign summary to {}".format(args.out), file=sys.stderr)
    if args.json:
        print(payload)
    else:
        print(
            "campaign seed {}: {} scenario(s) — {} certified, {} violating, "
            "{} error".format(
                summary.seed, summary.campaign, summary.certified,
                summary.violating, summary.errored,
            )
        )
        histogram = summary.invariant_histogram()
        if histogram:
            print(
                render_table(
                    ["invariant", "violations"],
                    [[name, count] for name, count in histogram.items()],
                    title="violated invariant families",
                )
            )
        for result in summary.reproducers:
            print(
                "reproducer ({}, {} reduction(s), {} evaluation(s)):".format(
                    result.target, result.reductions, result.evaluations
                )
            )
            sys.stdout.write(result.spec.dumps())
        for label in summary.unshrinkable:
            print("unshrinkable: {} (raise --shrink-budget?)".format(label))
    if summary.unshrinkable:
        return 2
    return 0 if summary.ok else 1


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzSpec, run_spec, shrink_spec
    from repro.fuzz.campaign import _shrink_target
    from repro.fuzz.corpus import CORPUS_FORMAT, load_corpus_entry

    if not args.path:
        print("repro fuzz shrink: a spec JSON file is required", file=sys.stderr)
        return 2
    target = args.target
    try:
        with open(args.path) as fh:
            text = fh.read()
        document = json.loads(text)
        if isinstance(document, dict) and document.get("format") == CORPUS_FORMAT:
            entry = load_corpus_entry(args.path)
            spec = entry.spec
            if target is None:
                target = entry.target
        else:
            spec = FuzzSpec.loads(text)
    except (OSError, ValueError) as exc:
        print("repro fuzz shrink: {}".format(exc), file=sys.stderr)
        return 2
    cache = not args.no_cache
    if target is None:
        outcome = run_spec(spec, cache=cache)
        target = _shrink_target(outcome)
        if target is None:
            print(
                "repro fuzz shrink: spec certifies clean (behaviors: {}); "
                "pick an outcome id with --target".format(
                    ", ".join("extra:" + b for b in outcome.behaviors) or "none"
                ),
                file=sys.stderr,
            )
            return 2
        print("shrinking against {}".format(target), file=sys.stderr)
    try:
        result = shrink_spec(
            spec, target, max_evaluations=args.shrink_budget, cache=cache
        )
    except ValueError as exc:
        print("repro fuzz shrink: {}".format(exc), file=sys.stderr)
        return 2
    if args.out:
        atomic_write_text(args.out, result.spec.dumps())
        print("wrote shrunk spec to {}".format(args.out), file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(
            "{} in {} evaluation(s), {} reduction(s){}".format(
                "converged" if result.converged else "budget exhausted",
                result.evaluations,
                result.reductions,
                ":" if result.steps else " (already minimal)",
            )
        )
        for step in result.steps:
            print("  - {}".format(step))
        sys.stdout.write(result.spec.dumps())
    return 0 if result.converged else 1


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print("removed {} cached result(s) from {}".format(removed, cache.root))
        return 0
    entries = list(cache.entries())
    print("cache dir: {}".format(default_cache_dir()))
    print("entries:   {}".format(len(entries)))
    print("size:      {:.1f} KiB".format(cache.size_bytes() / 1024.0))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Agile, efficient virtualization power management "
            "with low-latency server power states' (ISCA 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one policy and print its report")
    run_parser.add_argument(
        "--policy", default="S3-PM", choices=sorted(POLICIES), help="policy preset"
    )
    run_parser.add_argument(
        "--checkpoint-every-s",
        type=_POSITIVE,
        default=None,
        metavar="SECONDS",
        help="write a crash-safe checkpoint every SECONDS of simulated "
        "time (requires --checkpoint-dir)",
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory for checkpoint files (ckpt-<sim-ms>.repro)",
    )
    # --out traces a run from its first event, which a resumed run lacks.
    origin = run_parser.add_mutually_exclusive_group()
    origin.add_argument(
        "--resume",
        default=None,
        metavar="FROM",
        help="resume a previous run from this checkpoint file; the "
        "scenario-shape flags (--policy/--hosts/...) are ignored — the "
        "checkpoint defines the scenario",
    )
    origin.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="trace the run, write the trace JSONL to FILE, print its "
        "sha256 and certify it (exit 1 on a violation)",
    )
    run_parser.add_argument(
        "--stream",
        default=None,
        metavar="PATH",
        help="stream per-window metrics to this JSONL file as the run "
        "progresses (service mode; survives crashes via --resume)",
    )
    # Bounded series keep no samples to draw a timeline from.
    series = run_parser.add_mutually_exclusive_group()
    series.add_argument(
        "--bounded",
        action="store_true",
        help="keep O(1) telemetry aggregates instead of full series "
        "(long-horizon service mode; excludes --timeline)",
    )
    series.add_argument(
        "--timeline",
        action="store_true",
        help="print demand / active-host / power sparklines",
    )
    _add_scenario_args(run_parser)
    run_parser.add_argument(
        "--wake-failure-rate",
        type=_RATE,
        default=0.0,
        help="probability a wake attempt fails (fault injection; default: 0)",
    )
    run_parser.add_argument("--json", action="store_true", help=_JSON_HELP)
    _add_profile_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    branch_parser = sub.add_parser(
        "branch",
        help="fan a warm checkpoint out across policy variants "
        "(what-if continuation from a mid-run snapshot)",
    )
    branch_parser.add_argument(
        "checkpoint",
        help="checkpoint file written by 'repro run --checkpoint-every-s'",
    )
    branch_parser.add_argument(
        "--policies",
        type=_policies,
        default="S3-PM,S5-PM,Hybrid",
        help="comma-separated preset names to continue with "
        "(default: %(default)s)",
    )
    branch_parser.add_argument(
        "--hours",
        type=_POSITIVE,
        default=None,
        help="extend the horizon to this many simulated hours "
        "(default: the parent run's horizon)",
    )
    branch_parser.add_argument(
        "--workers",
        type=_COUNT,
        default=None,
        help="process-pool width for the fan-out (default: REPRO_WORKERS "
        "or the CPUs this process may use)",
    )
    branch_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the scenario result cache",
    )
    branch_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the branch reports as JSON",
    )
    branch_parser.set_defaults(func=cmd_branch)

    compare_parser = sub.add_parser(
        "compare", help="run several policies, each at every wake-failure rate"
    )
    compare_parser.add_argument(
        "--policies",
        type=_policies,
        default="AlwaysOn,S5-PM,S3-PM,Hybrid",
        help="comma-separated preset names (default: %(default)s)",
    )
    compare_parser.add_argument(
        "--workers",
        type=_COUNT,
        default=None,
        help="process-pool width for the comparison (default: REPRO_WORKERS "
        "or the CPUs this process may use)",
    )
    compare_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the scenario result cache",
    )
    _add_scenario_args(compare_parser)
    compare_parser.add_argument(
        "--wake-failure-rate",
        type=_rates,
        default="0",
        metavar="RATES",
        help="comma-separated probabilities a wake attempt fails; every "
        "policy runs at every rate (default: 0)",
    )
    compare_parser.add_argument("--json", action="store_true", help=_JSON_HELP)
    _add_profile_args(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    trace_parser = sub.add_parser(
        "trace", help="validate a decision-trace file ('trace check FILE')"
    )
    trace_parser.add_argument(
        "action", choices=["check"], help="replay and certify a trace file"
    )
    trace_parser.add_argument("path", help="trace JSONL file to validate")
    trace_parser.add_argument(
        "--json", action="store_true", help="emit the verdict as JSON"
    )
    trace_parser.set_defaults(func=cmd_trace_check)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="run a grammar-driven fuzzing campaign, or delta-debug one "
        "spec file ('fuzz shrink FILE')",
    )
    fuzz_parser.add_argument(
        "action",
        nargs="?",
        choices=["campaign", "shrink"],
        default="campaign",
        help="'campaign' (default): generate, run and certify N scenarios; "
        "'shrink': minimize one spec JSON file",
    )
    fuzz_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="spec JSON file to minimize (only with 'shrink')",
    )
    fuzz_parser.add_argument(
        "--campaign",
        type=_COUNT,
        default=100,
        metavar="N",
        help="number of scenarios to generate (default: %(default)s)",
    )
    fuzz_parser.add_argument(
        "--seed", type=_SEED, default=0, help="campaign seed (default: 0)"
    )
    fuzz_parser.add_argument(
        "--workers",
        type=_COUNT,
        default=None,
        help="process-pool width (default: REPRO_WORKERS or the CPUs this "
        "process may use)",
    )
    fuzz_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical campaign summary / shrink result as JSON",
    )
    fuzz_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the scenario result cache",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violating specs without delta-debugging them",
    )
    fuzz_parser.add_argument(
        "--shrink-budget",
        type=_COUNT,
        default=256,
        metavar="N",
        help="max oracle evaluations per shrink session "
        "(default: %(default)s)",
    )
    fuzz_parser.add_argument(
        "--target",
        default=None,
        metavar="ID",
        help="outcome id to shrink against (shrink mode; default: the "
        "spec's first violated invariant or error id)",
    )
    fuzz_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the summary JSON (campaign) or the shrunk spec "
        "(shrink) to FILE",
    )
    fuzz_parser.set_defaults(func=cmd_fuzz)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the scenario result cache"
    )
    cache_parser.add_argument(
        "action",
        choices=["info", "clear"],
        nargs="?",
        default="info",
        help="info: show location/entries/size; clear: delete every entry",
    )
    cache_parser.set_defaults(func=cmd_cache)

    lint_parser = sub.add_parser(
        "lint",
        help="run the reprolint static-analysis pass (simulation invariants)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src benchmarks)",
    )
    lint_parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (sarif for CI annotation uploads)",
    )
    lint_parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    lint_parser.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="NAME",
        help="skip files whose path below a directory argument contains "
        "this directory name (repeatable; explicit file arguments are "
        "always linted)",
    )
    lint_parser.set_defaults(func=cmd_lint)

    char_parser = sub.add_parser(
        "characterize", help="print the power-state characterization tables"
    )
    char_parser.set_defaults(func=cmd_characterize)

    policies_parser = sub.add_parser("policies", help="list policy presets")
    policies_parser.set_defaults(func=cmd_policies)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "checkpoint_every_s", None) is not None and args.checkpoint_dir is None:
        parser.error("argument --checkpoint-every-s: requires --checkpoint-dir")
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # SIGINT, or SIGTERM remapped by the pool's graceful-signal
        # shim: workers are already drained and partial artifacts
        # discarded by the time this propagates.  130 = 128 + SIGINT,
        # the shell convention for "killed by Ctrl-C".
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
