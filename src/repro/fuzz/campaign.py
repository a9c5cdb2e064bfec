"""Campaign orchestration: generate N specs, run, certify, shrink.

A campaign is a pure function of ``(package version, campaign seed,
count)``: specs are drawn index-by-index from the seeded generator, run
through the existing scenario process pool (read-through result cache —
re-running a campaign is nearly free), trace-certified by the oracle,
and every violating spec is minimized by the delta-debugging shrinker.
The summary's JSON form is canonical and wall-clock-free, so the same
seed yields byte-identical output on every machine — the acceptance
contract the CLI and the nightly CI job both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

import repro
from repro.core.cache import ResultCache
from repro.core.parallel import resolve_workers, run_scenarios
from repro.fold import left_sum
from repro.fuzz.generate import generate_campaign
from repro.fuzz.oracle import SpecOutcome, classify_artifacts, run_spec
from repro.fuzz.shrink import ShrinkResult, shrink_spec
from repro.fuzz.spec import SPEC_VERSION, FuzzSpec

#: Schema version of the campaign summary JSON.
SUMMARY_FORMAT = "repro-fuzz-summary-v1"


@dataclass
class CampaignSummary:
    """Everything one campaign produced, in canonical JSON-able form."""

    seed: int
    campaign: int
    outcomes: List[SpecOutcome] = field(default_factory=list)
    reproducers: List[ShrinkResult] = field(default_factory=list)
    #: Violating specs whose shrink did not converge within budget.
    unshrinkable: List[str] = field(default_factory=list)

    @property
    def certified(self) -> int:
        return left_sum(1 for o in self.outcomes if o.status == "certified")

    @property
    def violating(self) -> int:
        return left_sum(1 for o in self.outcomes if o.status == "violating")

    @property
    def errored(self) -> int:
        return left_sum(1 for o in self.outcomes if o.status == "error")

    @property
    def ok(self) -> bool:
        """Campaign health: no violations and no run errors."""
        return self.violating == 0 and self.errored == 0

    def invariant_histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            for invariant in outcome.invariants:
                counts[invariant] = counts.get(invariant, 0) + 1
        return dict(sorted(counts.items()))

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": SUMMARY_FORMAT,
            "version": repro.__version__,
            "spec_version": SPEC_VERSION,
            "seed": self.seed,
            "campaign": self.campaign,
            "counts": {
                "certified": self.certified,
                "violating": self.violating,
                "error": self.errored,
            },
            "invariants": self.invariant_histogram(),
            "outcomes": [o.to_json_dict() for o in self.outcomes],
            "reproducers": [r.to_json_dict() for r in self.reproducers],
            "unshrinkable": list(self.unshrinkable),
        }


def _run_batch(
    specs: List[FuzzSpec],
    workers: Optional[int],
    cache: Union[None, bool, ResultCache],
) -> List[SpecOutcome]:
    """Pool-run a batch; on any worker failure fall back to serial.

    ``run_scenarios`` propagates the first worker exception and discards
    the batch, so a single infeasible spec would otherwise take down the
    whole campaign.  The serial path (:func:`run_spec`) classifies each
    failure as an ``error`` outcome instead.
    """
    try:
        artifacts = run_scenarios(
            [s.scenario_spec() for s in specs], workers=workers, cache=cache
        )
    # Deliberately broad: any worker failure (infeasible placement, a
    # pickling edge, a simulation bug under fuzzed inputs) must degrade
    # to per-spec classification, not abort the campaign.
    except Exception:  # reprolint: disable=RL006
        return [run_spec(spec, cache=cache) for spec in specs]
    return [
        classify_artifacts(spec.label, art)
        for spec, art in zip(specs, artifacts)
    ]


def run_campaign(
    campaign: int,
    seed: int,
    workers: Optional[int] = None,
    cache: Union[None, bool, ResultCache] = True,
    shrink: bool = True,
    max_shrink_evaluations: int = 128,
    batch_size: int = 32,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignSummary:
    """Run a ``campaign``-scenario fuzzing campaign seeded ``seed``.

    Every generated spec is simulated with tracing on, its trace replayed
    through the validator, and — when ``shrink`` is set — every
    non-certified spec is delta-debugged down to a minimal reproducer for
    the *same* outcome id (the first violated invariant, or the error
    id).  Shrinks that exhaust their budget are reported in
    ``unshrinkable`` rather than silently dropped.
    """
    if campaign < 1:
        raise ValueError("campaign size must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    # Up front: a batch's failure falls back to serial runs, which would
    # hide a bad worker count.
    workers = resolve_workers(workers)

    specs = generate_campaign(seed, campaign)
    summary = CampaignSummary(seed=seed, campaign=campaign)
    for start in range(0, len(specs), batch_size):
        batch = specs[start:start + batch_size]
        summary.outcomes.extend(_run_batch(batch, workers, cache))
        if progress is not None:
            progress(
                "ran {}/{} scenarios ({} violating, {} error)".format(
                    len(summary.outcomes), campaign,
                    summary.violating, summary.errored,
                )
            )

    if shrink:
        for spec, outcome in zip(specs, summary.outcomes):
            if outcome.ok:
                continue
            target = _shrink_target(outcome)
            if target is None:
                summary.unshrinkable.append(outcome.label)
                continue
            if progress is not None:
                progress(
                    "shrinking {} (target {})".format(outcome.label, target)
                )
            result = shrink_spec(
                spec,
                target,
                max_evaluations=max_shrink_evaluations,
                cache=cache,
            )
            if result.converged:
                summary.reproducers.append(result)
            else:
                summary.unshrinkable.append(outcome.label)
    return summary


def _shrink_target(outcome: SpecOutcome) -> Optional[str]:
    """The outcome id a failed spec should be minimized against.

    Prefer the first violated invariant (sorted — deterministic across
    runs); fall back to the error id for specs that died before
    producing a trace.
    """
    if outcome.invariants:
        return sorted(outcome.invariants)[0]
    ids = sorted(i for i in outcome.outcome_ids() if i.startswith("error:"))
    return ids[0] if ids else None
