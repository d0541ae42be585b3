"""Bounds-first top-k certification.

Ranking answers only needs exact probabilities where the ranking is
actually contested. The certifier:

1. computes every answer's dissociation enclosure ``[lo, up]``
   (safe-plan speed, no inference);
2. takes the k-th largest lower bound as the decision threshold ``τ``:
   at least ``k`` answers are certainly ``≥`` their own lower bounds, so
   any answer with ``up < τ`` is certainly outside the top k;
3. refines only the surviving candidates with exact component-sliced
   inference, and ranks them by ``(-probability, row)``.

Soundness of the short-circuit: a skipped answer ``a`` has
``p(a) ≤ up(a) < τ ≤ lo(b) ≤ p(b)`` for at least ``k`` answers ``b``, so
``a`` can never displace a candidate. All candidates are refined exactly
and sorted by the same total order as exact-all evaluation, so the
returned top k is *identical* (set and order) to ranking every answer
exactly — the skipped work is pure savings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.executor import EvaluationResult
from repro.db.schema import Row
from repro.dissociation.engine import DissociationResult
from repro.obs.trace import span as _span

__all__ = ["CertifiedAnswer", "TopKCertification", "certified_top_k"]

#: Float-noise margin on the decision threshold: an answer whose upper bound
#: is within this of ``τ`` is refined rather than skipped.
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class CertifiedAnswer:
    """One ranked answer: exact probability plus its screening interval."""

    row: Row
    probability: float
    lower: float
    upper: float

    def as_dict(self) -> dict:
        return {
            "row": list(self.row),
            "probability": self.probability,
            "lower": self.lower,
            "upper": self.upper,
        }


@dataclass
class TopKCertification:
    """The certified top-k ranking and its cost accounting."""

    #: The top-k answers, best first — identical (set and order) to ranking
    #: every answer by exact probability.
    answers: list[CertifiedAnswer]
    #: Total answers considered.
    total_answers: int
    #: Candidates whose interval overlapped the decision boundary and were
    #: refined with exact inference.
    refined: int
    #: Answers certified out of the top k by their bounds alone — the
    #: inference calls saved.
    certified_out: int
    #: The decision threshold τ (k-th largest lower bound).
    threshold: float
    #: Wall time of the bound screening (plan-level dissociation included
    #: only if the caller charges it; see ``bounds_seconds`` of the result).
    refine_seconds: float = 0.0
    bounds_seconds: float = 0.0

    @property
    def k(self) -> int:
        return len(self.answers)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "total_answers": self.total_answers,
            "refined": self.refined,
            "certified_out": self.certified_out,
            "threshold": self.threshold,
            "refine_seconds": self.refine_seconds,
            "bounds_seconds": self.bounds_seconds,
            "answers": [a.as_dict() for a in self.answers],
        }


def _rank_key(item):
    row, p = item
    return (-p, row)


def certified_top_k(
    result: EvaluationResult,
    bounds: DissociationResult,
    k: int,
    *,
    engine: str = "auto",
    dpll_max_calls: int = 5_000_000,
    workers: int | None = None,
    cache=None,
    budget=None,
) -> TopKCertification:
    """The exact top-*k* answers of *result*, screened by *bounds*.

    *result* is a pL evaluation of a plan and *bounds* the dissociation
    enclosures of the same plan (:class:`~repro.dissociation.engine.`
    ``DissociationEvaluator.evaluate`` on the identical plan). Exact
    inference runs only for answers whose enclosure overlaps the k-th
    decision boundary; everything else is certified out by its bounds.
    """
    from repro.core.network import EPSILON
    from repro.perf.parallel import parallel_marginals

    if k <= 0:
        raise ValueError(f"top-k needs k >= 1, got {k}")
    rows = list(result.relation.items())
    # Answer-level enclosures: the anonymous row probability scales the
    # lineage enclosure linearly, and the dissociation result is already at
    # answer level, so use it directly; rows the dissociated plan somehow
    # missed stay conservatively at [0, 1].
    enclosures = {row: bounds.interval(row) for row, _l, _p in rows}

    with _span("certified_top_k", k=k, answers=len(rows)) as sp:
        if len(rows) <= k:
            threshold = 0.0
            candidates = rows
        else:
            lowers = sorted(
                (b.lower for b in enclosures.values()), reverse=True
            )
            threshold = lowers[k - 1]
            candidates = [
                (row, l, p)
                for row, l, p in rows
                if enclosures[row].upper >= threshold - BOUNDARY_MARGIN
            ]
        refine_start = time.perf_counter()
        targets = sorted(
            {l for _row, l, _p in candidates if l != EPSILON}
        )
        marginals = {EPSILON: 1.0}
        if targets:
            marginals.update(
                parallel_marginals(
                    result.network,
                    targets,
                    workers=workers,
                    engine=engine,
                    dpll_max_calls=dpll_max_calls,
                    cache=cache,
                    budget=budget,
                )
            )
        exact = {row: p * marginals[l] for row, l, p in candidates}
        ranked = sorted(exact.items(), key=_rank_key)[:k]
        refine_seconds = time.perf_counter() - refine_start
        sp.add("refined", len(candidates))
        sp.add("certified_out", len(rows) - len(candidates))

    return TopKCertification(
        answers=[
            CertifiedAnswer(
                row,
                p,
                enclosures[row].lower,
                enclosures[row].upper,
            )
            for row, p in ranked
        ],
        total_answers=len(rows),
        refined=len(candidates),
        certified_out=len(rows) - len(candidates),
        threshold=threshold,
        refine_seconds=refine_seconds,
        bounds_seconds=bounds.seconds,
    )
