"""Extensional dissociation bounds: safe-plan-speed probability enclosures.

An unsafe plan forces intensional (#P-hard) inference because offending
tuples — uncertain tuples with more than one join partner — appear in many
lineage events at once. *Dissociation* (Gatterbauer & Suciu) removes the
sharing instead of tracking it:

* **Upper bound** — replace each offending tuple by fresh independent
  copies, one per join partner, every copy keeping the original probability
  ``p``. The dissociated plan is safe, so the plain extensional fold
  (``×`` at joins, ``1 - Π(1-p)`` at projections) evaluates it exactly, and
  independence can only *increase* an OR-combination's probability (the
  oblivious OR-dissociation upper bound).
* **Lower bound** — the symmetric assignment variant: a tuple with fanout
  ``c`` gives each copy ``p' = 1 - (1-p)^(1/c)``, splitting its failure
  mass evenly, so the exponents sum to one and the same fold is a sound
  lower bound.

Both variants run on the columnar kernels of :mod:`repro.core.columnar`,
the ones the pL evaluator uses, under a second fold: the same
:class:`~repro.core.columnar.BaseScanner` scan and encode cache, the same
selection masks, one :func:`~repro.core.columnar.match_join` pair
enumeration per join (its partner counts are the fanouts ``c``) and the same
:func:`~repro.core.columnar.or_fold` at projections. Only the per-row
values, ``(up, lo)`` instead of ``(lineage, p)``, and the join arithmetic
differ. There is no And-Or network, no DPLL and no conditioning. On a
data-safe instance no tuple has fanout > 1, both folds coincide, and the
result is the exact probability with zero width;
the interval widens only where conditioning would have happened. Because a
left-deep plan over a self-join-free query shares lineage exclusively in
OR-context (copies of a tuple meet again only at projection OR-groups,
never under one AND), the bounds are sound at every answer.

:class:`DissociationEvaluator` is the plan-level entry point;
:func:`repro.dissociation.network.network_dissociation_bounds` applies the
same two folds to an already-built And-Or component (the resilience
ladder's rung), and :mod:`repro.sqlbackend.executor` evaluates the same
rewriting in pure SQL.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import columnar as _columnar
from repro.core.plan import (
    Filter,
    Join,
    Plan,
    Project,
    Scan,
    Select,
    left_deep_plan,
    plan_schema,
)
from repro.db.database import ProbabilisticDatabase
from repro.db.schema import Row
from repro.enclosure import Enclosure
from repro.errors import PlanError
from repro.obs.trace import span as _span
from repro.query.syntax import ConjunctiveQuery

__all__ = [
    "DissociationResult",
    "DissociationEvaluator",
    "dissociation_bounds",
]


@dataclass
class DissociationResult:
    """Per-answer dissociation enclosures for one plan evaluation.

    ``dissociated`` counts the (row, join) fanout splits applied; zero means
    the plan was data safe on this instance and every interval has zero
    width — the bounds *are* the exact probabilities.
    """

    attributes: tuple[str, ...]
    bounds: dict[Row, Enclosure]
    seconds: float
    dissociated: int

    @property
    def exact(self) -> bool:
        """True when no tuple was dissociated (bounds are exact)."""
        return self.dissociated == 0

    @property
    def max_width(self) -> float:
        return max((b.width for b in self.bounds.values()), default=0.0)

    def interval(self, row: Row) -> Enclosure:
        """The enclosure of *row* (``[0, 1]`` for rows never produced)."""
        return self.bounds.get(row) or Enclosure(
            0.0, 1.0, "dissociation", False
        )

    def as_dict(self, limit: int | None = None) -> dict:
        rows = sorted(
            self.bounds.items(), key=lambda kv: (-kv[1].upper, kv[0])
        )
        if limit is not None:
            rows = rows[:limit]
        return {
            "attributes": list(self.attributes),
            "answers": len(self.bounds),
            "dissociated": self.dissociated,
            "exact": self.exact,
            "max_width": self.max_width,
            "seconds": self.seconds,
            "bounds": [
                {"row": list(row), "lower": b.lower, "upper": b.upper,
                 "width": b.width}
                for row, b in rows
            ],
        }


# ------------------------------------------------------------ the second fold
class _BoundsRel(_columnar.CodedRelation):
    """Key codes plus the (upper, lower) probability of every row."""

    __slots__ = ("up", "lo")

    def __init__(self, attributes, interner, codes, up, lo) -> None:
        super().__init__(attributes, interner, codes)
        self.up = up
        self.lo = lo

    def take(self, idx: np.ndarray) -> "_BoundsRel":
        return _BoundsRel(
            self.attributes, self.interner, self.codes[idx], self.up[idx],
            self.lo[idx],
        )


def _split_lower(lo: np.ndarray, fanout: np.ndarray) -> tuple[np.ndarray, int]:
    """The symmetric failure split ``p' = 1 - (1-p)^(1/c)`` where ``c > 1``.

    Computed as ``-expm1(log(1-p) / c)`` in log space for precision near 0
    and 1; ``p = 1`` rows are fixed points and skipped (no offending tuple
    is certain by definition).
    """
    mask = (fanout > 1) & (lo < 1.0)
    if not mask.any():
        return lo, 0
    out = lo.copy()
    out[mask] = -np.expm1(_columnar.log_complement(lo[mask]) / fanout[mask])
    return out, int(mask.sum())


class DissociationEvaluator:
    """Evaluate a plan's dissociation bounds extensionally.

    Reentrant: the split count travels with each evaluation, so one
    evaluator (and its scan cache) may serve concurrent calls.

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> _ = db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    >>> _ = db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
    >>> res = DissociationEvaluator(db).evaluate_query(
    ...     parse_query("q() :- R(x), S(x,y), T(y)"))
    >>> b = res.bounds[()]
    >>> b.lower <= 0.375 <= b.upper      # encloses the exact probability
    True
    """

    def __init__(self, db: ProbabilisticDatabase) -> None:
        self.db = db
        self._scanner = _columnar.BaseScanner()

    # ------------------------------------------------------------ entry points
    def evaluate(self, plan: Plan) -> DissociationResult:
        """Dissociation bounds of every answer of *plan*."""
        plan_schema(plan, self.db)
        start = time.perf_counter()
        with _span("dissociation", engine="columnar") as sp:
            rel, dissociated = self._eval(plan)
            values = rel.interner.decode_column(rel.codes.reshape(-1))
            k = len(rel.attributes)
            bounds = {}
            for i in range(len(rel)):
                row = tuple(values[i * k : (i + 1) * k])
                bounds[row] = Enclosure.clamped(
                    rel.lo[i], rel.up[i], "dissociation"
                )
            sp.add("answers", len(bounds))
            sp.add("dissociated", dissociated)
        return DissociationResult(
            attributes=tuple(rel.attributes),
            bounds=bounds,
            seconds=time.perf_counter() - start,
            dissociated=dissociated,
        )

    def evaluate_query(
        self, query: ConjunctiveQuery, join_order: list[str] | None = None
    ) -> DissociationResult:
        """Bounds for the left-deep plan of *query*."""
        return self.evaluate(left_deep_plan(query, join_order))

    # --------------------------------------------------------------- recursion
    def _eval(self, plan: Plan) -> tuple[_BoundsRel, int]:
        """The plan's relation and the fanout splits applied below it."""
        if isinstance(plan, Scan):
            attributes, codes, probs = self._scanner.scan(
                self.db[plan.relation], plan.terms
            )
            return _BoundsRel(
                attributes, self._scanner.interner, codes, probs, probs
            ), 0
        if isinstance(plan, Join):
            left, left_splits = self._eval(plan.left)
            right, right_splits = self._eval(plan.right)
            rel, splits = self._join(left, right, plan.on)
            return rel, left_splits + right_splits + splits
        if not isinstance(plan, (Select, Filter, Project)):
            raise PlanError(f"unknown plan node {plan!r}")
        rel, splits = self._eval(plan.child)
        if isinstance(plan, Project):
            return self._project(rel, plan.attributes), splits
        if isinstance(plan, Select):
            mask = _columnar.eq_mask(rel, plan.conditions)
        else:
            mask = _columnar.where_mask(rel, list(plan.predicates))
        return rel.take(np.flatnonzero(mask)), splits

    @staticmethod
    def _project(rel: _BoundsRel, attributes) -> _BoundsRel:
        """Both folds OR-combine each group; ``lo`` is capped at ``up``."""
        positions = [rel.index_of(a) for a in attributes]
        gid, groups, first = _columnar._group_first_occurrence(
            len(rel), [rel.codes[:, j] for j in positions]
        )
        up = _columnar.or_fold(gid, groups, first, rel.up)
        lo = _columnar.or_fold(gid, groups, first, rel.lo)
        return _BoundsRel(
            attributes,
            rel.interner,
            rel.codes[first][:, positions],
            up,
            np.minimum(lo, up),
        )

    @staticmethod
    def _join(left: _BoundsRel, right: _BoundsRel, on) -> tuple[_BoundsRel, int]:
        """Multiply matched pairs; the lower fold first splits every row by
        its partner count (the dissociation degree ``c``)."""
        m = _columnar.match_join(left, right, on)
        lo_l, left_splits = _split_lower(left.lo, m.left_fanout)
        lo_r, right_splits = _split_lower(right.lo, m.right_fanout)
        return _BoundsRel(
            m.attributes,
            left.interner,
            m.codes(left, right),
            left.up[m.li] * right.up[m.ri],
            lo_l[m.li] * lo_r[m.ri],
        ), left_splits + right_splits


def dissociation_bounds(
    db: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    join_order: list[str] | None = None,
) -> DissociationResult:
    """One-shot convenience: bounds for *query*'s left-deep plan."""
    return DissociationEvaluator(db).evaluate_query(
        query, join_order
    )
