"""Named RNG stream derivation from the scenario seed.

Every random draw in the simulation must be replayable from the scenario
seed alone, and insensitive to *other* subsystems' draw counts.  The
discipline (audited statically by reprolint RL012) is: each subsystem
derives a dedicated generator from a ``"{subsystem}:{seed}:{qualifier}"``
stream label, digested with :func:`zlib.crc32` (stable across processes,
unlike the salted builtin ``hash``).

:data:`RNG_STREAMS` is the authoritative label registry — the lint rule
reads it by AST, so adding a stream means adding a line here.  The
digest is byte-for-byte the historical
``zlib.crc32("{label}:{seed}:{qualifier}".format(...).encode())``
expression these call sites used inline, so certified golden traces and
benchmark thresholds are unaffected by routing through this module.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np

#: Registered stream labels -> owning module.  One subsystem per label;
#: reprolint RL012 rejects unregistered or shared labels.
RNG_STREAMS = {
    "latency": "repro.datacenter.host",
    "repair": "repro.datacenter.faults",
    "migration": "repro.datacenter.faults",
    "telemetry": "repro.telemetry.sampler",
    "fuzz": "repro.fuzz.generate",
    "plane": "repro.core.plane.observer",
}


def stream_digest(stream: str, seed: int, *qualifiers: Any) -> int:
    """32-bit digest of ``"{stream}:{seed}:{q1}:..."`` via crc32.

    ``qualifiers`` narrow the stream to an entity (host name, migration
    id, tick number) so entities draw independently.
    """
    label = ":".join([stream, str(seed)] + [str(q) for q in qualifiers])
    return zlib.crc32(label.encode("utf-8"))


def stream_rng(stream: str, seed: int, *qualifiers: Any) -> "np.random.Generator":
    """A numpy generator seeded from the named stream digest."""
    import numpy as np

    return np.random.default_rng(stream_digest(stream, seed, *qualifiers))
