"""The shrunk-reproducer corpus: minimal specs replayed by tier-1 forever.

Each file under ``tests/corpus/`` is one delta-debugged spec together
with the oracle that certified it::

    {
      "format": "repro-fuzz-corpus-v1",
      "note":   "why this spec is interesting",
      "origin": "campaign seed 20260808, scenario 137, shrunk in 23 evals",
      "oracle": {"kind": "behavior", "target": "extra:migrations_failed"},
      "spec":   { ...canonical FuzzSpec JSON... }
    }

``oracle.kind`` records what the replay test asserts:

* ``"behavior"`` — the run must certify clean **and** still exhibit the
  target behavior (``target`` stays in the outcome-id set);
* ``"invariant"`` — the spec once tripped this validator invariant; the
  replay asserts the target **still reproduces**, so the corpus entry
  is a living bug report — when the bug is fixed, the test flags the
  entry for promotion to a fixed-regression assertion.

Entries are canonical JSON (sorted keys, 2-space indent) so corpus
diffs stay reviewable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Union

from repro.fuzz.spec import FuzzSpec, SpecError

#: Schema tag every corpus file must carry.
CORPUS_FORMAT = "repro-fuzz-corpus-v1"

#: The oracle kinds a corpus entry may declare.
ORACLE_KINDS = ("behavior", "invariant")


@dataclass(frozen=True)
class CorpusEntry:
    """One checked-in reproducer: a minimal spec plus its oracle."""

    spec: FuzzSpec
    kind: str
    target: str
    note: str = ""
    origin: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ORACLE_KINDS:
            raise ValueError(
                "oracle kind must be one of {}, got {!r}".format(
                    ", ".join(ORACLE_KINDS), self.kind
                )
            )
        if not self.target:
            raise ValueError("oracle target must be non-empty")

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": CORPUS_FORMAT,
            "note": self.note,
            "origin": self.origin,
            "oracle": {"kind": self.kind, "target": self.target},
            "spec": self.spec.to_json_dict(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def load_corpus_entry(path: Union[str, Path]) -> CorpusEntry:
    """Read and strictly validate one corpus file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("{}: unparsable corpus JSON: {}".format(path, exc)) from exc
    if not isinstance(data, dict):
        raise SpecError("{}: corpus entry must be an object".format(path))
    if data.get("format") != CORPUS_FORMAT:
        raise SpecError(
            "{}: format {!r} is not the supported {!r}".format(
                path, data.get("format"), CORPUS_FORMAT
            )
        )
    oracle = data.get("oracle")
    if not isinstance(oracle, dict):
        raise SpecError("{}: missing 'oracle' object".format(path))
    try:
        return CorpusEntry(
            spec=FuzzSpec.from_json_dict(data.get("spec")),
            kind=str(oracle.get("kind", "")),
            target=str(oracle.get("target", "")),
            note=str(data.get("note", "")),
            origin=str(data.get("origin", "")),
        )
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError("{}: {}".format(path, exc)) from exc
