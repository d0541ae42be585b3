"""Data safety analysis (Section 3).

A plan is *data safe* on an instance when every operator's extensional output
coincides with the possible-worlds semantics (Definition 3.1). Selections and
projections always are; a join is data safe iff every uncertain tuple has at
most one join partner (Proposition 3.2). The tuples violating this are the
*offending tuples* (Definition 3.4) — the paper's measure of how far an
instance is from safety, and exactly the tuples the evaluator conditions on.

This module provides the instance-level predicates on base relations, and a
plan-level report assembled by running the partial-lineage evaluator (the
offending sets of intermediate operators depend on intermediate results, so
running the — cheap, extensional-dominated — evaluation is the natural way to
obtain them; inference is *not* run for a report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.executor import EvaluationResult, PartialLineageEvaluator
from repro.core.plan import Plan
from repro.db.database import ProbabilisticDatabase
from repro.db.relation import ProbabilisticRelation
from repro.db.schema import Row
from repro.db.statistics import fanout_profile


def join_offending_tuples(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
    left_on: Sequence[str],
    right_on: Sequence[str],
) -> list[Row]:
    """Offending tuples of *left* for the join ``left ⋈ right`` (Prop. 3.2).

    A tuple of *left* offends when it is uncertain and matches more than one
    tuple of *right* on the join attributes. All partners count, certain or
    not: sharing an uncertain tuple across several outputs correlates them.
    """
    partners = fanout_profile(right, right_on).expected_partners
    lidx = left.schema.indices_of(left_on)
    return [
        row
        for row, p in left.items()
        if p < 1.0 and partners(tuple(row[i] for i in lidx)) > 1
    ]


def join_is_data_safe(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
    left_on: Sequence[str],
    right_on: Sequence[str],
) -> bool:
    """Proposition 3.2: the join is data safe iff it is 1-1 on uncertain tuples."""
    return not join_offending_tuples(left, right, left_on, right_on) and not (
        join_offending_tuples(right, left, right_on, left_on)
    )


@dataclass
class PlanSafetyReport:
    """How (un)safe a plan is on a specific instance.

    ``offending_per_operator`` lists, for every join in evaluation order, the
    number of tuples that had to be conditioned. A data-safe plan has an empty
    symbolic part: zero offending tuples and a one-node network.
    """

    offending_per_operator: list[tuple[str, int]]
    total_offending: int
    network_size: int
    is_data_safe: bool

    @classmethod
    def from_result(cls, result: EvaluationResult) -> "PlanSafetyReport":
        """Extract the report from an evaluation result."""
        per_op = [
            (s.operator, s.conditioned) for s in result.stats if s.conditioned or "⋈" in s.operator
        ]
        return cls(
            offending_per_operator=per_op,
            total_offending=result.offending_count,
            network_size=len(result.network),
            is_data_safe=result.is_data_safe,
        )


def analyze_plan(plan: Plan, db: ProbabilisticDatabase) -> PlanSafetyReport:
    """Evaluate *plan* on *db* (no inference) and report its data safety.

    The number of offending tuples is the paper's distance-from-safety
    measure: 0 means the whole evaluation was extensional; larger values mean
    more symbolic processing was needed.
    """
    result = PartialLineageEvaluator(db).evaluate(plan)
    return PlanSafetyReport.from_result(result)
