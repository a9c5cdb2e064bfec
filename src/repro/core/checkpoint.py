"""Crash-safe checkpoint/restore of a running scenario.

Long-horizon runs (the month-scale fleet scenarios behind the paper's
headline numbers) must survive crashes, OOM kills and preemption.  This
module snapshots the *complete* simulation state — cluster, management
plane, RNG streams, trace buffer, and every pending simulated event —
and restores it so the resumed run produces a trace **byte-identical**
to the uninterrupted one (enforced by the differential suite and the
SIGKILL crash-injection harness in ``tests/test_checkpoint*.py``).

Why this is not just ``pickle.dump(env)``
-----------------------------------------
CPython cannot pickle generator frames, and every simulation process is
a generator.  The kernel therefore checkpoints only at **quiescent
points**: instants where every live process is a registered long-lived
loop parked on a ``Timeout``/``SharedTimeout``.  Each such loop declares
a :class:`~repro.sim.ResumeSpec` at spawn — a picklable recipe that
rebuilds an equivalent generator positioned at its wait.  The capture
walks the event heap, records ``(when, priority, eid, cb_index)`` for
every resumable waiter, and **vetoes** the snapshot (raising
:class:`CheckpointVeto`) if anything else is in flight — migrations,
power transitions, evacuations.  The coordinator simply retries a bit
later; transient activity delays a checkpoint, it is never dropped.

Restore re-creates the processes in record order.  Because fresh events
are numbered in that same order, every heap tie ``(when, priority)``
resolves exactly as it would have in the uninterrupted run, and
coalesced shared timeouts reassemble their waiter lists in the original
callback order.  Absolute-instant scheduling (``timeout_at``) avoids the
``now + (t - now)`` float round-trip that would shift re-armed waits by
one ulp.

File format
-----------
::

    REPROCKPT1\\n
    {manifest JSON, one line}\\n
    <pickle payload>

The manifest carries the schema version, the writing repro version, the
payload byte count and its sha256.  Loads reject anything torn, stale or
corrupted with a clear :class:`CheckpointError` — a bad checkpoint is
never silently resumed.  Files are written through
:func:`repro.core.atomicio.atomic_write` (tmp + fsync + rename), so a
crash mid-save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.atomicio import atomic_write
from repro.sim.environment import Environment
from repro.sim.events import SharedTimeout, Timeout
from repro.sim.process import Process, ResumeSpec

if TYPE_CHECKING:
    from repro.core.config import ManagerConfig
    from repro.core.plane.arbiter import PowerAwareManager

#: Bump on any incompatible change to the manifest or payload layout
#: (2: one telemetry/report channel class, no neat manager subclass;
#: 3: one demand lattice instead of per-object ``_grid*`` fields;
#: 4: the plane's trace lives on its ``ManagementLog``, not on each
#: component; 5: the trace event classes live in ``repro.trace_events``,
#: and a pickle names each class's module; 6: the demand lattice keeps
#: the slot its rows were rebuilt from and rows for VMs admitted after
#: its fill; 7: a host machine holds the maker of its latency generator
#: until its first jittered transition; 8: a cluster holds its hosts'
#: cores and memory capacity as arrays for the planning view; 9: the
#: sampler holds one sample frame instead of a dict of series).
CHECKPOINT_SCHEMA = 9

_MAGIC = b"REPROCKPT1\n"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or safely loaded."""


class CheckpointVeto(CheckpointError):
    """The simulation is not at a quiescent point; retry later.

    Raised during capture when some live process is not a registered
    resumable loop (e.g. a migration or power transition is in flight).
    Transient by construction — the activity drains and a later attempt
    succeeds.
    """


@dataclass(frozen=True)
class ResumeRecord:
    """One resumable process's position in the pending-event heap.

    ``when``/``priority``/``eid`` locate the event the process waits on;
    ``cb_index`` is the waiter's position in that event's callback list
    (shared timeouts carry several waiters whose resume order matters).
    Sorting records by this 4-tuple is exactly the order the original
    heap would have fired them in.
    """

    when: float
    priority: int
    eid: int
    cb_index: int
    spec: ResumeSpec


def capture_resume_records(env: Environment) -> List[ResumeRecord]:
    """Prove quiescence and record every pending resumable wait.

    Walks the event heap applying the capture rules (see module
    docstring); raises :class:`CheckpointVeto` on the first event — or
    live process — the checkpoint protocol cannot account for.
    """
    records: List[ResumeRecord] = []
    covered: set = set()
    for when, priority, eid, event in env._queue:
        callbacks = event.callbacks
        if callbacks is None:
            continue  # already processed; stale heap reference
        if (
            priority == -1
            and len(callbacks) == 1
            and callbacks[0] == env._stop_callback
        ):
            # The run-horizon stop event: env.run(until=...) re-creates
            # it on resume at the exact same instant and priority.
            continue
        if not callbacks and event.triggered and event._ok:
            # Inert notification: a finished process (or similar) nobody
            # waits on.  Popping it only advances the event counter.
            continue
        if isinstance(event, (Timeout, SharedTimeout)):
            for index, callback in enumerate(callbacks):
                if callback == env._purge_shared:
                    continue
                waiter = getattr(callback, "__self__", None)
                if (
                    getattr(callback, "__name__", "") == "_resume"
                    and isinstance(waiter, Process)
                    and waiter.is_alive
                    and waiter.ckpt is not None
                ):
                    records.append(
                        ResumeRecord(when, priority, eid, index, waiter.ckpt)
                    )
                    covered.add(id(waiter))
                    continue
                raise CheckpointVeto(
                    "non-resumable waiter on {!r} at t={}: {!r}".format(
                        event, when, callback
                    )
                )
            continue
        raise CheckpointVeto(
            "pending {} at t={} cannot be checkpointed".format(
                type(event).__name__, when
            )
        )
    # Completeness: every live process must be parked on a recorded wait.
    # The active process is the checkpoint coordinator itself (capture
    # runs inside its step) and is re-created fresh on resume.
    for proc in env._live:
        if proc is env._active_process:
            continue
        if id(proc) not in covered:
            raise CheckpointVeto(
                "live process {!r} is not parked on a resumable wait".format(
                    proc
                )
            )
    return records


def restore_processes(env: Environment, records: List[ResumeRecord]) -> None:
    """Re-create every checkpointed process at its recorded wait.

    Records are replayed in heap-fire order ``(when, priority, eid,
    cb_index)``; fresh events are therefore numbered in that order and
    every tie resolves as the uninterrupted run's heap would have.
    """
    for record in sorted(
        records, key=lambda r: (r.when, r.priority, r.eid, r.cb_index)
    ):
        if record.when < env.now:
            raise CheckpointError(
                "resume record at t={} predates checkpoint time {}".format(
                    record.when, env.now
                )
            )
        env.process(
            record.spec.make_generator(record.when), ckpt=record.spec
        )


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------


def save_checkpoint(
    path: Union[str, Path],
    state: Any,
    records: List[ResumeRecord],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write ``state`` + ``records`` atomically; returns the manifest.

    ``state`` is the runner's live-scenario bundle (it must contain the
    environment the records reference, so pickling preserves shared
    identity between record specs and the object graph).
    """
    from repro import __version__

    payload = pickle.dumps(
        {"state": state, "records": records}, protocol=pickle.HIGHEST_PROTOCOL
    )
    manifest: Dict[str, Any] = dict(meta or {})
    manifest.update(
        {
            "schema": CHECKPOINT_SCHEMA,
            "repro_version": __version__,
            "payload_bytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
    )
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    atomic_write(path, _MAGIC + header.encode("utf-8") + b"\n" + payload)
    return manifest


def read_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and validate a checkpoint's manifest without unpickling."""
    target = Path(path)
    if not target.exists():
        raise CheckpointError("no such checkpoint: {}".format(target))
    data = target.read_bytes()
    manifest, _ = _split(data, target)
    return manifest


def load_checkpoint(
    path: Union[str, Path],
) -> Tuple[Any, List[ResumeRecord], Dict[str, Any]]:
    """Load and fully validate a checkpoint; never resumes a bad one.

    Returns ``(state, records, manifest)``.  Raises
    :class:`CheckpointError` naming the exact defect — bad magic,
    incompatible schema, stale writer version, truncation, or digest
    mismatch — so operators can tell a torn file from a wrong one.
    """
    from repro import __version__

    target = Path(path)
    if not target.exists():
        raise CheckpointError("no such checkpoint: {}".format(target))
    data = target.read_bytes()
    manifest, payload = _split(data, target)
    if manifest.get("repro_version") != __version__:
        raise CheckpointError(
            "stale checkpoint {}: written by repro {}, running {}".format(
                target, manifest.get("repro_version"), __version__
            )
        )
    expected = manifest.get("payload_bytes")
    if not isinstance(expected, int) or len(payload) < expected:
        raise CheckpointError(
            "truncated checkpoint {}: {} of {} payload bytes".format(
                target, len(payload), expected
            )
        )
    if len(payload) > expected:
        raise CheckpointError(
            "corrupted checkpoint {}: {} payload bytes, manifest says {}".format(
                target, len(payload), expected
            )
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest.get("sha256"):
        raise CheckpointError(
            "corrupted checkpoint {}: payload digest mismatch".format(target)
        )
    try:
        blob = pickle.loads(payload)
        state, records = blob["state"], blob["records"]
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            "corrupted checkpoint {}: unreadable payload ({})".format(
                target, exc
            )
        ) from exc
    return state, records, manifest


def _split(data: bytes, target: Path) -> Tuple[Dict[str, Any], bytes]:
    """Separate ``data`` into (manifest, payload), validating framing."""
    if not data.startswith(_MAGIC):
        raise CheckpointError(
            "not a repro checkpoint: {} (bad magic)".format(target)
        )
    try:
        header_end = data.index(b"\n", len(_MAGIC))
    except ValueError:
        raise CheckpointError(
            "truncated checkpoint {}: manifest line incomplete".format(target)
        ) from None
    try:
        manifest = json.loads(data[len(_MAGIC):header_end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            "corrupted checkpoint {}: unreadable manifest ({})".format(
                target, exc
            )
        ) from exc
    if manifest.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            "incompatible checkpoint schema {} in {} (this build reads {})".format(
                manifest.get("schema"), target, CHECKPOINT_SCHEMA
            )
        )
    return manifest, data[header_end + 1:]


# ----------------------------------------------------------------------
# In-simulation coordinator
# ----------------------------------------------------------------------


class CheckpointCoordinator:
    """Periodic in-simulation checkpointing at simulated-time boundaries.

    Wakes at every multiple of ``every_s``, calls the runner-provided
    ``save_fn(path)``, and on a :class:`CheckpointVeto` retries every
    ``retry_s`` until the transient activity drains (bounded by
    ``max_retries``, after which the boundary is skipped and counted).

    The coordinator deliberately uses plain (non-shared) timeouts so it
    never perturbs the waiter order of coalesced simulation events, and
    it never mutates simulation state — enabling checkpointing shifts
    event ids uniformly but leaves the decision trace byte-identical.
    The coordinator itself is *not* resumable: a resumed run simply
    starts a fresh one, which computes the same next boundary.
    """

    def __init__(
        self,
        env: Environment,
        every_s: float,
        directory: Union[str, Path],
        save_fn: Callable[[Path], Dict[str, Any]],
        retry_s: float = 1.0,
        max_retries: int = 600,
    ) -> None:
        if every_s <= 0:
            raise ValueError("every_s must be positive")
        self.env = env
        self.every_s = float(every_s)
        self.directory = Path(directory)
        self._save = save_fn
        self.retry_s = float(retry_s)
        self.max_retries = int(max_retries)
        #: ``(path, manifest)`` per successful save, in order.
        self.saved: List[Tuple[Path, Dict[str, Any]]] = []
        #: Boundaries abandoned after ``max_retries`` consecutive vetoes.
        self.skipped = 0

    def start(self) -> Process:
        return self.env.process(self._run())

    def checkpoint_path(self, sim_time_s: float) -> Path:
        """Deterministic file name for the boundary at ``sim_time_s``."""
        return self.directory / "ckpt-{:015d}.repro".format(
            int(round(sim_time_s * 1000.0))
        )

    def _run(self):
        while True:
            now = self.env.now
            boundary = (math.floor(now / self.every_s) + 1) * self.every_s
            if boundary <= now:  # float-grid edge: never re-fire in place
                boundary += self.every_s
            yield self.env.timeout_at(boundary)
            retries = 0
            while True:
                try:
                    manifest = self._save(self.checkpoint_path(self.env.now))
                except CheckpointVeto:
                    retries += 1
                    if retries > self.max_retries:
                        self.skipped += 1
                        break
                    yield self.env.timeout(self.retry_s)
                else:
                    self.saved.append(
                        (self.checkpoint_path(self.env.now), manifest)
                    )
                    break


# ----------------------------------------------------------------------
# Branching: one warm checkpoint, many policy variants
# ----------------------------------------------------------------------


def rebind_config(
    manager: "PowerAwareManager", config: "ManagerConfig"
) -> None:
    """Point a restored management plane at a different policy.

    Only *policy* parameters may change: structural knobs baked into the
    wired object graph at build time — the plane architecture and the
    DVFS model attached to every host — must match, and a mismatch is a
    :class:`CheckpointError`, not a silent half-rebind.
    """
    from repro.core.predictor import make_predictor
    from repro.placement.balancer import LoadBalancer

    old = manager.config
    if config.plane != old.plane:
        raise CheckpointError(
            "cannot branch across planes: checkpoint ran {!r}, "
            "requested {!r}".format(old.plane, config.plane)
        )
    if config.enable_dvfs != old.enable_dvfs:
        raise CheckpointError(
            "cannot branch across DVFS modes: the model is wired into "
            "every host at build time"
        )
    manager.config = config
    manager.predictor = make_predictor(config.predictor)
    manager.balancer = LoadBalancer(config.balance)
    # The governor reads manager-owned config live.
    manager.governor.config = config
    scoreboard = manager.scoreboard
    scoreboard.backoff_base_s = config.wake_backoff_base_s
    scoreboard.backoff_max_s = config.wake_backoff_max_s
    scoreboard.blacklist_after_failures = config.blacklist_after_failures
    scoreboard.blacklist_hold_s = config.blacklist_hold_s
    detectors = manager.observer.detectors
    if detectors is not None:
        detectors.channel.delay_s = config.neat_request_delay_s
        detectors.channel.dropout_rate = config.neat_request_dropout
    sampler = manager.tick_aggregates
    if sampler is not None:
        sampler._headroom_ceiling = config.balance.dst_ceiling
    # Invalidate per-policy memos.
    manager._cap_cores_key = None
    manager._cap_cores_value = 0.0
