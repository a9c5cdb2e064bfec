"""Wall-clock-free streaming metrics: one JSONL record per sample window.

Long-horizon service mode cannot afford to accumulate a whole report in
RAM and write it at the end — a crash at hour 700 of 720 would lose
everything, and the series arrays alone grow without bound.  The
:class:`StreamingMetricsSink` instead emits each sampler window as one
JSON line the moment it closes, keyed by simulated time only (no
wall-clock reads, so output is reproducible byte for byte).

Crash consistency works with the checkpoint layer, not atomic renames:
appends to a live stream are inherently incremental, so at every
checkpoint the sink flushes + fsyncs and records its byte offset and
window count in the checkpoint manifest.  Resume truncates the file back
to that offset and continues numbering from the recorded count — any
window the crashed run re-emitted past the checkpoint is deduplicated,
and the final file is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Bump on any incompatible change to the header or record layout.
STREAM_SCHEMA_VERSION = 1


class StreamingMetricsSink:
    """Incremental per-window JSONL metrics writer (bounded RAM).

    Fresh start: truncates ``path`` and writes a one-line header.
    Resume: pass the checkpoint's ``resume_offset``/``resume_windows`` —
    the file is truncated back to the fsynced offset and emission
    continues exactly where the checkpointed run stood.  A file shorter
    than the offset is refused (``ValueError``) and left as it is.
    """

    def __init__(
        self,
        path: Union[str, Path],
        label: str = "",
        resume_offset: Optional[int] = None,
        resume_windows: int = 0,
    ) -> None:
        self.path = Path(path)
        self.windows = 0
        if resume_offset is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # A live stream is append-structured by design; torn tails are
            # healed by the truncate-to-checkpoint-offset resume protocol,
            # not by whole-file replacement.
            self._handle = open(  # reprolint: disable=RL016
                self.path, "wb"
            )
            header = {
                "kind": "repro-stream",
                "schema": STREAM_SCHEMA_VERSION,
                "label": label,
            }
            self._handle.write(
                json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
            )
        else:
            if not self.path.exists():
                raise FileNotFoundError(
                    "cannot resume stream: {} does not exist".format(self.path)
                )
            size = self.path.stat().st_size
            if size < resume_offset:
                # ``truncate`` would pad the file with NUL bytes up to the
                # offset: the windows before it are lost, not torn.
                raise ValueError(
                    "cannot resume stream: {} holds {} bytes, fewer than the "
                    "checkpoint's offset {}".format(self.path, size, resume_offset)
                )
            self._handle = open(  # reprolint: disable=RL016
                self.path, "r+b"
            )
            self._handle.truncate(resume_offset)
            self._handle.seek(resume_offset)
            self.windows = int(resume_windows)

    def emit_window(self, t: float, metrics: Dict[str, Any]) -> None:
        """Append one closed sample window as a JSON line."""
        record: Dict[str, Any] = {"window": self.windows, "t": t}
        record.update(metrics)
        self._handle.write(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        )
        self.windows += 1

    def flush_offset(self) -> int:
        """Make everything emitted so far durable; return the byte offset.

        Called at each checkpoint: the returned offset (plus
        :attr:`windows`) goes into the checkpoint manifest and is the
        truncation point a resumed run rolls back to.
        """
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return self._handle.tell()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "StreamingMetricsSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
