"""Benchmark-side spans around the simulator's public functions.

Nothing under ``src/`` is instrumented.  A :class:`Tracer` replaces each
hooked name *where its caller looks it up* (a module global such as
``repro.core.runner.build_fleet``, or a method on its defining class) with
a wrapper that records a span, and puts the original back afterwards.

Each span records its call count, inclusive time and self time (its
duration minus the time of the spans it directly encloses).  Self time
of a correctly nested span tree is never negative, so a negative value
means the span structure broke.

The guard: every hook a workload installs must fire at least once.  A
callee that is renamed, moved to another class, or re-imported under a
name the caller now uses instead would otherwise drop its layer from the
report without any error.

Pool workers forked after :meth:`Tracer.install` inherit the wrappers.
A hook marked ``spill`` (``ScenarioSpec.run``) writes the spans recorded
in a worker during one call to a file, which the parent merges with
:meth:`Tracer.merge_spills`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter


class SpanGuardError(RuntimeError):
    """A hooked function is missing or was never called."""


@dataclass(frozen=True)
class Hook:
    """One wrapped public function.

    ``module`` and ``owner`` locate the name the caller resolves at call
    time: ``owner`` is a class in ``module`` for methods, None for module
    globals.
    """

    span: str
    module: str
    attr: str
    owner: Optional[str] = None
    #: Keep every call's duration (for percentiles and set-up samples).
    keep: bool = False
    #: Count calls only; no clock reads (hot paths called ~10^5 times).
    count_only: bool = False
    #: Integer attribute of the receiver whose growth during the call is
    #: summed into ``counts[span + "." + delta]``.
    delta: Optional[str] = None
    #: In a forked worker, write the spans of each call to a spill file.
    spill: bool = False


HOOKS: Dict[str, Hook] = {
    h.span: h
    for h in (
        Hook("runner.build_scenario", "repro.core.runner", "build_scenario", keep=True),
        Hook("workload.build_fleet", "repro.core.runner", "build_fleet"),
        Hook("runner.placement", "repro.core.runner", "spread_placement"),
        Hook("runner.finalize", "repro.core.runner", "finalize_scenario"),
        Hook("sim.run", "repro.sim.environment", "run", owner="Environment",
             delta="events_processed"),
        Hook("sampler.tick", "repro.telemetry.sampler", "sample_once",
             owner="ClusterSampler", keep=True),
        Hook("power.set_power", "repro.power.energy", "set_power",
             owner="EnergyMeter", count_only=True),
        Hook("plane.round", "repro.core.plane.arbiter", "evaluate",
             owner="PowerAwareManager", keep=True),
        Hook("plane.watchdog", "repro.core.plane.arbiter", "react_to_shortfall",
             owner="PowerAwareManager"),
        Hook("plane.admit", "repro.core.plane.arbiter", "admit",
             owner="PowerAwareManager"),
        Hook("migration.migrate", "repro.migration.engine", "migrate",
             owner="MigrationEngine"),
        Hook("trace.hash", "repro.telemetry.trace", "trace_hash", owner="TraceBuffer"),
        Hook("validate.trace", "repro.telemetry.validate", "validate_trace"),
        Hook("checkpoint.save", "repro.core.runner", "save_checkpoint"),
        Hook("checkpoint.load", "repro.core.runner", "load_checkpoint"),
        Hook("checkpoint.restore", "repro.core.runner", "restore_processes"),
        Hook("parallel.spec", "repro.core.parallel", "run", owner="ScenarioSpec",
             keep=True, spill=True),
        Hook("cache.put", "repro.core.cache", "put", owner="ResultCache"),
        Hook("cache.get", "repro.core.cache", "get", owner="ResultCache"),
    )
}


class Tracer:
    """In-memory span aggregates for one benchmark process."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.spill_dir = spill_dir
        self._pid = os.getpid()
        self._spills = 0
        #: One ``[child_seconds]`` frame per open span.
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[Any, str, Any, Hook]] = []

    # -- installation ---------------------------------------------------

    def install(self, names: List[str]) -> None:
        for name in names:
            hook = HOOKS[name]
            module = importlib.import_module(hook.module)
            holder: Any = module
            if hook.owner is not None:
                holder = getattr(module, hook.owner, None)
                if holder is None:
                    raise SpanGuardError(
                        "{}: {} has no class {}".format(name, hook.module, hook.owner)
                    )
                # Only a method defined on this very class: patching an
                # inherited one would shadow, not wrap, the real callee.
                original = holder.__dict__.get(hook.attr)
            else:
                original = getattr(module, hook.attr, None)
            if not callable(original):
                raise SpanGuardError(
                    "{}: {}.{} is not a function any more".format(
                        name, hook.owner or hook.module, hook.attr
                    )
                )
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
            if hook.keep:
                self.durations[name] = []
            if hook.delta:
                self.counts[name + "." + hook.delta] = 0
            setattr(holder, hook.attr, self._wrap(hook, original))
            self._installed.append((holder, hook.attr, original, hook))

    def uninstall(self) -> None:
        for holder, attr, original, _ in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def remove(self, name: str) -> None:
        """Put one original back while keeping its hook expected.

        This is what a renamed or re-imported callee looks like to the
        benchmark; :meth:`never_called` must then report the hook.
        """
        for holder, attr, original, hook in self._installed:
            if hook.span == name:
                setattr(holder, attr, original)
                return
        raise KeyError(name)

    def never_called(self) -> List[str]:
        """Every hook installed since creation that recorded no call."""
        return sorted(name for name, n in self.calls.items() if n == 0)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        name = hook.span
        calls = self.calls
        if hook.count_only:

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        total_s = self.total_s
        self_s = self.self_s
        kept = self.durations.get(name)
        counts = self.counts
        delta_key = name + "." + hook.delta if hook.delta else None
        delta_attr = hook.delta

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            before = getattr(args[0], delta_attr) if delta_attr else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                if kept is not None:
                    kept.append(dt)
                if delta_key is not None:
                    counts[delta_key] += getattr(args[0], delta_attr) - before

        if not hook.spill:
            return spanned

        spill_dir = self.spill_dir

        @functools.wraps(fn)
        def spilled(*args: Any, **kwargs: Any) -> Any:
            if spill_dir is None or os.getpid() == self._pid:
                return spanned(*args, **kwargs)
            self._reset()
            try:
                return spanned(*args, **kwargs)
            finally:
                self._spills += 1
                path = spill_dir / "{}-{}.json".format(os.getpid(), self._spills)
                path.write_text(json.dumps(self.snapshot()))

        return spilled

    # -- worker spill files --------------------------------------------

    def _reset(self) -> None:
        """Zero the tables a forked worker inherited from its parent."""
        for table in (self.calls, self.counts):
            for key in table:
                table[key] = 0
        for ftable in (self.total_s, self.self_s):
            for key in ftable:
                ftable[key] = 0.0
        for kept in self.durations.values():
            del kept[:]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counts": dict(self.counts),
        }

    def merge_spills(self) -> int:
        """Fold every worker spill file into this tracer; returns the count."""
        if self.spill_dir is None:
            return 0
        paths = sorted(self.spill_dir.glob("*.json"))
        for path in paths:
            part = json.loads(path.read_text())
            for key, value in part["calls"].items():
                self.calls[key] += value
            for key, value in part["total_s"].items():
                self.total_s[key] += value
            for key, value in part["self_s"].items():
                self.self_s[key] += value
            for key, value in part["durations"].items():
                self.durations[key].extend(value)
            for key, value in part["counts"].items():
                self.counts[key] += value
            path.unlink()
        return len(paths)
