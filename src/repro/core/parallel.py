"""Parallel scenario execution with result caching.

Every experiment in ``benchmarks/`` is a fan-out of independent
``run_scenario`` calls (policy comparisons, latency sweeps, scale-out
curves).  This module turns that implicit loop into an explicit, cacheable
execution plan:

* :class:`ScenarioSpec` — a picklable description of one ``run_scenario``
  call (policy config + keyword arguments + a display label);
* :class:`ScenarioArtifacts` — the picklable subset of a finished run
  that experiments actually consume (report, sample frame, fleet
  power-state residency, decision trace) — everything that can cross a
  process boundary or live in the disk cache;
* :func:`run_scenarios` — execute many specs, fanned out over a
  ``ProcessPoolExecutor``, with order-stable results, digest-level
  deduplication, and read-through caching via
  :mod:`repro.core.cache`;
* :class:`BranchSpec` — one warm-checkpoint continuation under a policy,
  with the same interface, so :func:`branch_scenarios` is a
  :func:`run_scenarios` call.

Determinism: a spec's outcome depends only on its contents (all
simulation RNGs are seeded from the spec), so serial and parallel
execution produce byte-identical reports, and results are returned in
spec order regardless of completion order.

Typical use::

    from repro.core import ScenarioSpec, run_scenarios, POLICIES

    specs = [ScenarioSpec(cfg(), kwargs=dict(n_hosts=16, seed=7))
             for cfg in (always_on, s3_policy)]
    baseline, managed = run_scenarios(specs, workers=2)
    print(managed.report.row())
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Union

if TYPE_CHECKING:
    from repro.core.runner import FleetStore, ScenarioResult

from repro.core.cache import ResultCache, Uncacheable, cache_disabled, scenario_digest
from repro.core.config import ManagerConfig
from repro.power.states import PowerState
from repro.telemetry.metrics import SimReport
from repro.telemetry.timeseries import SampleFrame
from repro.telemetry.trace import jsonl_hash


# ----------------------------------------------------------------------
# The picklable outcome of a finished run
# ----------------------------------------------------------------------


@dataclass
class ScenarioArtifacts:
    """Everything a benchmark consumes from a run, in picklable form."""

    report: SimReport
    #: The sampler's frame as it is: ``series[name]`` reads one series
    #: (``power_w``, ``demand_cores`` …); it pickles as packed columns.
    series: SampleFrame
    #: Fleet host-seconds per power state, summed over hosts in inventory
    #: order.
    residency_s: Dict[PowerState, float]
    #: Fleet host-seconds spent between states, summed the same way.
    transit_s: float
    #: SHA-256 of the decision-trace JSONL (only for traced runs).
    trace_hash: Optional[str] = None
    #: The full decision-trace JSONL stream, or None when tracing was off.
    trace_jsonl: Optional[str] = None


def snapshot_result(result: "ScenarioResult") -> ScenarioArtifacts:
    """Freeze a live :class:`~repro.core.ScenarioResult` into artifacts."""
    residency_s = {state: 0.0 for state in PowerState}
    transit_s = 0.0
    for host in result.cluster.hosts:
        for state in PowerState:
            residency_s[state] += host.machine.residency_s(state)
        transit_s += host.machine.transit_time_s
    trace_hash = None
    trace_jsonl = None
    if result.trace is not None:
        trace_jsonl = result.trace.to_jsonl()
        trace_hash = jsonl_hash(trace_jsonl)
    return ScenarioArtifacts(
        report=result.report,
        series=result.sampler.series,
        residency_s=residency_s,
        transit_s=transit_s,
        trace_hash=trace_hash,
        trace_jsonl=trace_jsonl,
    )


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------


@dataclass
class ScenarioSpec:
    """One ``run_scenario(config, **kwargs)`` call, as data.

    ``kwargs`` must be picklable (it crosses the process boundary).  For
    the result to be *cacheable* it must additionally have a canonical
    encoding — seeds, fleet specs, profiles and fault models all qualify;
    hand-built VM lists with live trace objects run fine but bypass the
    cache.  ``kwargs={"trace": True}`` records a decision trace, whose
    JSONL and hash the artifacts then carry.
    """

    config: ManagerConfig
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.config.name

    def digest(self) -> str:
        """Content hash for caching; raises ``Uncacheable`` when impossible."""
        return scenario_digest(self.config, self.kwargs)

    def run(self, fleet_store: Optional["FleetStore"] = None) -> ScenarioArtifacts:
        """Execute the scenario in this process and freeze the outcome.

        ``fleet_store`` is the sweep's (see :class:`~repro.core.runner.FleetStore`);
        the artifacts are the same with or without it.
        """
        from repro.core.runner import run_scenario

        return snapshot_result(
            run_scenario(self.config, fleet_store=fleet_store, **self.kwargs)
        )


#: A pool worker's fleet store, made by the pool initializer: it lives as
#: long as the worker, that is, for one :func:`run_scenarios` call.
_worker_fleets: Optional["FleetStore"] = None


def _execute_spec(spec: Union[ScenarioSpec, BranchSpec]) -> ScenarioArtifacts:
    """Module-level worker entry point (must be picklable by name)."""
    return spec.run(_worker_fleets)


def _pool_worker_init() -> None:
    """Give a pool worker its fleet store, and make it deaf to Ctrl-C.

    A terminal SIGINT goes to the whole foreground process group; if
    workers also raise KeyboardInterrupt mid-pickle, the pool machinery
    deadlocks or leaves orphans.  Only the parent handles the signal —
    it then cancels and drains the workers deterministically.
    """
    global _worker_fleets
    from repro.core.runner import FleetStore

    _worker_fleets = FleetStore()
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _raise_keyboard_interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt()


def _abort_pool(pool: ProcessPoolExecutor, futures: Dict[Any, int]) -> None:
    """Cancel, terminate and reap the pool on the interrupt/failure path.

    ``shutdown(wait=True)`` alone would block until *running* simulations
    finish — minutes for a long-horizon spec — so in-flight workers get a
    SIGTERM first.  Their results are discarded anyway, and every cache
    entry already stored was written atomically, so killing mid-task can
    never leave a partial artifact.  The final ``shutdown(wait=True)``
    reaps the terminated children — no orphans outlive the campaign.
    """
    for fut in futures:
        fut.cancel()
    for proc in getattr(pool, "_processes", {}).values():
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=True, cancel_futures=True)


@contextmanager
def _graceful_signals() -> Iterator[None]:
    """Turn SIGTERM into KeyboardInterrupt for the enclosed block.

    SIGTERM (kill, container stop, batch-queue preemption) normally
    terminates the interpreter without unwinding, leaving half-written
    artifacts and orphaned pool workers.  Mapping it onto
    KeyboardInterrupt funnels both cancellation paths through the same
    cleanup handlers.  Signal handlers can only be installed from the
    main thread; elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ----------------------------------------------------------------------
# The execution layer
# ----------------------------------------------------------------------


def default_workers() -> int:
    """Worker count when unspecified: ``REPRO_WORKERS`` env or usable CPUs.

    The CPUs are those this process may run on (its affinity mask, where
    the platform has one), so a pinned process starts no more workers
    than it can run.  Raises ``ValueError`` when ``REPRO_WORKERS`` is set
    but not an integer >= 1.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0  # refused below, with the same message
        if workers < 1:
            raise ValueError(
                "REPRO_WORKERS must be an integer >= 1, got {!r}".format(env)
            )
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """``workers``, or :func:`default_workers` when None; below 1 is a ``ValueError``."""
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ValueError("workers must be >= 1, got {!r}".format(workers))
    return workers


def _resolve_cache(
    cache: Union[None, bool, ResultCache]
) -> Optional[ResultCache]:
    if cache is False or cache is None:
        return None
    if cache_disabled():
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache()


def run_scenarios(
    specs: Iterable[Union[ScenarioSpec, BranchSpec]],
    workers: Optional[int] = None,
    cache: Union[None, bool, ResultCache] = True,
) -> List[ScenarioArtifacts]:
    """Run every spec; return artifacts in spec order.

    Args:
        specs: scenario or branch descriptions (order defines result
            order).
        workers: process count; ``None`` uses :func:`default_workers`,
            ``1`` runs inline (no pool, no pickling), below 1 is a
            ``ValueError``.
        cache: ``True`` (default) uses the shared disk cache, ``False`` /
            ``None`` disables caching, or pass a :class:`ResultCache` to
            control the location.  The ``REPRO_NO_CACHE`` environment
            variable force-disables it.

    Identical specs (same digest) are simulated once and the artifacts
    shared.  Results are deterministic: the pool only changes *where*
    each simulation runs, never its seeded RNG streams, and ordering is
    by spec position, not completion time.  Each process that runs
    specs (this one when serial, else each pool worker) keeps one
    :class:`~repro.core.runner.FleetStore` for the call, so consecutive
    specs that draw the same fleet build it once.
    """
    n_workers = resolve_workers(workers)
    specs = list(specs)
    store = _resolve_cache(cache)
    results: List[Optional[ScenarioArtifacts]] = [None] * len(specs)
    digests: List[Optional[str]] = [None] * len(specs)

    for i, spec in enumerate(specs):
        if not isinstance(spec, (ScenarioSpec, BranchSpec)):
            raise TypeError(
                "run_scenarios takes ScenarioSpec or BranchSpec items, "
                "got {!r}".format(spec)
            )
        try:
            digests[i] = spec.digest()
        except Uncacheable:
            digests[i] = None
        if store is not None and digests[i] is not None:
            results[i] = store.get(digests[i])

    # Dedup misses by digest: the first position owns the computation.
    owner_of: Dict[str, int] = {}
    to_run: List[int] = []
    for i in range(len(specs)):
        if results[i] is not None:
            continue
        d = digests[i]
        if d is not None and d in owner_of:
            continue
        if d is not None:
            owner_of[d] = i
        to_run.append(i)

    if to_run:
        n_workers = min(n_workers, len(to_run))
        if n_workers == 1:
            from repro.core.runner import FleetStore

            fleets = FleetStore()
            with _graceful_signals():
                for i in to_run:
                    artifacts = specs[i].run(fleets)
                    results[i] = artifacts
                    if store is not None and digests[i] is not None:
                        store.put(digests[i], artifacts)
        else:
            # Results are stored as they complete (not after the whole
            # batch), so an interrupted campaign keeps every finished
            # entry — each one is written atomically by the cache layer,
            # so a kill can never leave a partial entry behind.
            pool = ProcessPoolExecutor(
                max_workers=n_workers, initializer=_pool_worker_init
            )
            futures: Dict[Any, int] = {}
            try:
                with _graceful_signals():
                    futures = {
                        pool.submit(_execute_spec, specs[i]): i for i in to_run
                    }
                    for fut in as_completed(futures):
                        i = futures[fut]
                        artifacts = fut.result()
                        results[i] = artifacts
                        if store is not None and digests[i] is not None:
                            store.put(digests[i], artifacts)
            except BaseException:
                _abort_pool(pool, futures)
                raise
            pool.shutdown(wait=True)

    # Fill duplicate positions from their owners.
    for i in range(len(specs)):
        d = digests[i]
        if results[i] is None and d is not None:
            results[i] = results[owner_of[d]]

    final: List[ScenarioArtifacts] = []
    missing: List[str] = []
    for spec, artifacts in zip(specs, results):
        if artifacts is None:
            missing.append(spec.name)
        else:
            final.append(artifacts)
    if missing:
        raise RuntimeError(
            "run_scenarios produced no artifacts for {} (internal scheduling "
            "bug — please report)".format(", ".join(missing))
        )
    return final


# ----------------------------------------------------------------------
# Warm-checkpoint branching
# ----------------------------------------------------------------------


def branch_digest(
    checkpoint_sha256: str, config: ManagerConfig, horizon_s: Optional[float]
) -> str:
    """Cache key for one branched run.

    Keyed by the checkpoint's *content* digest (from its manifest), not
    its path — re-running the parent scenario reproduces the same bytes,
    so warm branches stay cached across checkpoint directories.
    """
    return scenario_digest(
        config,
        {"checkpoint_sha256": checkpoint_sha256, "horizon_s": horizon_s},
        extra={"branch": True},
    )


@dataclass
class BranchSpec:
    """One ``resume_scenario(checkpoint, config=, horizon_s=)`` call, as data.

    Offers the :class:`ScenarioSpec` interface (``name``, ``digest``,
    ``run``), so :func:`run_scenarios` fans branches out like specs.
    """

    checkpoint: str
    #: The checkpoint's content digest (from its manifest): the cache key.
    checkpoint_sha256: str
    config: ManagerConfig
    horizon_s: Optional[float] = None

    @property
    def name(self) -> str:
        return self.config.name

    def digest(self) -> str:
        return branch_digest(self.checkpoint_sha256, self.config, self.horizon_s)

    def run(self, fleet_store: Optional["FleetStore"] = None) -> ScenarioArtifacts:
        """Resume the checkpoint under ``config``; a resumed run draws no
        fleet, so ``fleet_store`` goes unused."""
        from repro.core.runner import resume_scenario

        return snapshot_result(
            resume_scenario(
                self.checkpoint, config=self.config, horizon_s=self.horizon_s
            )
        )


def branch_scenarios(
    checkpoint: Union[str, "os.PathLike[str]"],
    configs: Iterable[ManagerConfig],
    horizon_s: Optional[float] = None,
    workers: Optional[int] = None,
    cache: Union[None, bool, ResultCache] = True,
) -> List[ScenarioArtifacts]:
    """Fan one warm checkpoint out across policy variants.

    Reads the checkpoint manifest once (cheap — header only) for the
    content digest, then runs one :class:`BranchSpec` per config through
    :func:`run_scenarios`: cache hits skip the simulation, misses run in
    parallel workers, and results come back in config order.
    """
    from repro.core.checkpoint import read_manifest

    path = os.fspath(checkpoint)
    sha256 = read_manifest(path)["sha256"]
    return run_scenarios(
        [BranchSpec(path, sha256, config, horizon_s) for config in configs],
        workers=workers,
        cache=cache,
    )
