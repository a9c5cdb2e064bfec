"""Disk-backed scenario result cache.

Benchmark modules re-run identical scenarios constantly — every
policy-comparison figure recomputes the same ``AlwaysOn`` baseline, and a
repeated sweep re-simulates every point.  This module memoizes finished
runs on disk, keyed by a *content hash* of everything that determines the
outcome:

* the policy :class:`~repro.core.config.ManagerConfig` (all fields),
* every ``run_scenario`` keyword argument (fleet spec, seed, horizon …),
* :func:`source_sha256`, the sha256 of the package's own ``.py`` sources.

The key is built from a canonical JSON encoding, so two configs with the
same values always hash identically regardless of construction order.
Anything that cannot be canonically encoded (e.g. a hand-built VM list
with custom trace callables) raises :class:`Uncacheable` — such scenarios
still *run*, they just skip the cache.

Invalidation rules:

* changing any byte of the package's sources invalidates every entry
  (stale entries are simply never looked up again); checkpoints carry
  the same digest (:mod:`repro.core.checkpoint`), so one rule decides
  staleness for both;
* ``ResultCache.clear()`` (or ``repro cache clear``) deletes everything;
* the ``REPRO_NO_CACHE`` environment variable disables lookups entirely;
* ``REPRO_CACHE_DIR`` relocates the cache (default
  ``~/.cache/repro-sim``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.fold import left_sum

#: On-disk entry framing: magic line, sha256 hex of the payload, newline,
#: pickle payload.  A read that fails any of these checks is *quarantined*
#: (renamed aside for inspection), never trusted and never raised through
#: to the caller — a torn cache entry must degrade to a cache miss.
_ENTRY_MAGIC = b"REPROCACHE1\n"

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_NO_CACHE"


class Uncacheable(TypeError):
    """The scenario contains state that has no canonical encoding."""


#: The package's source tree, whose bytes are part of every key.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _source_sha256(root: Path) -> str:
    """sha256 over the names and bytes of every ``.py`` file under ``root``.

    Read once per process: a run's results depend on the code that
    produced them, and ``repro.__version__`` does not move with it.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_sha256() -> str:
    """The running package's source digest: the identity of the code that
    writes a cache entry or a checkpoint, and the only staleness rule."""
    return _source_sha256(_PACKAGE_ROOT)


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable canonical form.

    Supports the building blocks scenario descriptions are made of:
    scalars, strings, lists/tuples, string-keyed dicts, enums, dataclasses
    and numpy scalars/arrays.  Raises :class:`Uncacheable` for anything
    else (bound methods, generators, custom objects …).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return {
            "__enum__": "{}.{}".format(type(obj).__module__, type(obj).__qualname__),
            "name": obj.name,
        }
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": "{}.{}".format(
                type(obj).__module__, type(obj).__qualname__
            ),
            "fields": {
                f.name: canonical(getattr(obj, f.name)) for f in fields(obj)
            },
        }
    if isinstance(obj, dict):
        encoded = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                # Enum / tuple keys (e.g. a transition table keyed by
                # (src, dst) states) serialize via their canonical form.
                key = json.dumps(canonical(key), sort_keys=True)
            encoded[key] = canonical(value)
        return {"__dict__": encoded}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [canonical(item) for item in obj]
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=lambda it: json.dumps(it, sort_keys=True))
        return items
    try:  # numpy scalars / arrays, without a hard numpy dependency here
        import numpy as np

        if isinstance(obj, np.generic):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return [canonical(item) for item in obj.tolist()]
    except ImportError:  # pragma: no cover
        pass
    # Pure-value objects (power models, traces without RNG state …):
    # encode class + instance dict if every attribute encodes cleanly.
    # Classes can exclude derived/memo attributes via ``__cache_ignore__``.
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict) and state:
        ignore = frozenset(getattr(type(obj), "__cache_ignore__", ()))
        try:
            return {
                "__object__": "{}.{}".format(
                    type(obj).__module__, type(obj).__qualname__
                ),
                "state": {
                    name: canonical(value)
                    for name, value in sorted(state.items())
                    if name not in ignore
                },
            }
        except Uncacheable:
            pass
    raise Uncacheable(
        "{!r} ({}) has no canonical encoding; pass picklable dataclasses, "
        "scalars and containers, or disable caching for this scenario".format(
            obj, type(obj).__name__
        )
    )


def scenario_digest(
    config: Any, kwargs: Dict[str, Any], extra: Optional[Dict[str, Any]] = None
) -> str:
    """Content hash identifying one ``run_scenario(config, **kwargs)`` call.

    ``extra`` marks a key that describes something other than a plain
    run (a branch from a checkpoint); it is omitted from the payload
    when None.
    """
    try:
        payload = {
            "source": source_sha256(),
            "config": canonical(config),
            "kwargs": canonical(kwargs),
        }
        if extra is not None:
            payload["extra"] = canonical(extra)
    except RecursionError:
        raise Uncacheable("scenario description contains reference cycles")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_disabled() -> bool:
    """True when the environment kill-switch is set."""
    return bool(os.environ.get(_ENV_DISABLE))


def default_cache_dir() -> Path:
    """Resolve the cache directory (``REPRO_CACHE_DIR`` overrides)."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-sim"


class ResultCache:
    """Pickle-per-entry disk cache: every hit reads and verifies its file."""

    def __init__(self, root: Union[str, "os.PathLike[str]", None] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / "{}.pkl".format(key)

    def _quarantine(self, path: Path) -> None:
        """Move a torn/foreign entry aside so it never satisfies a read.

        Renaming (rather than deleting) keeps the evidence for post-mortem
        while guaranteeing the ``*.pkl`` glob and future ``get`` calls
        skip it.  Rename failures fall back to best-effort unlink — a bad
        entry must not survive under its original name.
        """
        self.quarantined += 1
        try:
            os.replace(path, path.with_suffix(".quarantine"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value for ``key``, or None.

        Entries whose digest frame does not verify (torn write, bit rot,
        or an unframed file) are quarantined and reported as misses.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            self.misses += 1
            return None
        if not data.startswith(_ENTRY_MAGIC):
            self._quarantine(path)
            self.misses += 1
            return None
        frame = data[len(_ENTRY_MAGIC):]
        digest, sep, payload = frame.partition(b"\n")
        if (
            not sep
            or len(digest) != 64
            or hashlib.sha256(payload).hexdigest().encode("ascii") != digest
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, ImportError):
            # The bytes are exactly what was written (digest verified), so
            # this is a code-version skew, not corruption: quarantine it
            # all the same — it will never load here.
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (digest-framed, atomic rename)."""
        from repro.core.atomicio import atomic_write

        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        atomic_write(self._path(key), _ENTRY_MAGIC + digest + b"\n" + payload)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def entries(self) -> Iterable[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def size_bytes(self) -> int:
        return left_sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return "<ResultCache {} entries at {}>".format(
            len(list(self.entries())), self.root
        )
