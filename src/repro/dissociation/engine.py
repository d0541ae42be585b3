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

Both variants are ordinary vectorized NumPy folds over the columnar
representation — no And-Or network, no DPLL, no conditioning. On a
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
from repro.core.columnar import ValueInterner
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
from repro.query.syntax import ConjunctiveQuery, Constant

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


# --------------------------------------------------------------- columnar rep
class _BoundsRel:
    """A columnar relation carrying two probability vectors (upper, lower).

    Quacks enough like :class:`~repro.core.columnar.ColumnarPLRelation`
    (``codes`` / ``index_of`` / ``interner`` / ``len``) for
    :meth:`~repro.core.columnar.Comparison.mask` to compile against it.
    """

    __slots__ = ("attributes", "codes", "up", "lo", "interner")

    def __init__(self, attributes, codes, up, lo, interner):
        self.attributes = tuple(attributes)
        self.codes = codes
        self.up = up
        self.lo = lo
        self.interner = interner

    def __len__(self) -> int:
        return self.up.shape[0]

    def index_of(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise PlanError(
                f"unknown attribute {attribute!r} of {self.attributes}"
            ) from None

    def take(self, idx: np.ndarray) -> "_BoundsRel":
        return _BoundsRel(
            self.attributes,
            self.codes[idx],
            self.up[idx],
            self.lo[idx],
            self.interner,
        )


def _split_lower(lo: np.ndarray, fanout: np.ndarray) -> tuple[np.ndarray, int]:
    """The symmetric failure split ``p' = 1 - (1-p)^(1/c)`` where ``c > 1``.

    Computed as ``-expm1(log1p(-p) / c)`` for precision near 0 and 1;
    ``p = 1`` rows are fixed points and skipped (no offending tuple is
    certain by definition).
    """
    mask = (fanout > 1) & (lo < 1.0)
    if not mask.any():
        return lo, 0
    out = lo.copy()
    with np.errstate(divide="ignore"):
        out[mask] = -np.expm1(np.log1p(-lo[mask]) / fanout[mask])
    return out, int(mask.sum())


def _or_fold(
    gid: np.ndarray, groups: int, first: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Per-group independent-OR fold ``1 - Π(1-p)``, singletons bit-exact."""
    counts = np.bincount(gid, minlength=groups)
    with np.errstate(divide="ignore"):
        logs = np.log1p(-probs)
    out = np.clip(-np.expm1(np.bincount(gid, weights=logs, minlength=groups)),
                  0.0, 1.0)
    single = counts == 1
    out[single] = probs[first[single]]
    return out


class DissociationEvaluator:
    """Evaluate a plan's dissociation bounds extensionally.

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
        self._interner = ValueInterner()
        self._base_cache: dict = {}
        #: Incremented per evaluation by the join splits (reset each call).
        self._dissociated = 0

    # ------------------------------------------------------------ entry points
    def evaluate(self, plan: Plan) -> DissociationResult:
        """Dissociation bounds of every answer of *plan*."""
        plan_schema(plan, self.db)
        self._dissociated = 0
        start = time.perf_counter()
        with _span("dissociation", engine="columnar") as sp:
            rel = self._eval(plan)
            values = self._interner.decode_column(rel.codes.reshape(-1))
            k = len(rel.attributes)
            bounds = {}
            for i in range(len(rel)):
                row = tuple(values[i * k : (i + 1) * k])
                bounds[row] = Enclosure.clamped(
                    rel.lo[i], rel.up[i], "dissociation"
                )
            sp.add("answers", len(bounds))
            sp.add("dissociated", self._dissociated)
        return DissociationResult(
            attributes=tuple(rel.attributes),
            bounds=bounds,
            seconds=time.perf_counter() - start,
            dissociated=self._dissociated,
        )

    def evaluate_query(
        self, query: ConjunctiveQuery, join_order: list[str] | None = None
    ) -> DissociationResult:
        """Bounds for the left-deep plan of *query*."""
        return self.evaluate(left_deep_plan(query, join_order))

    # ------------------------------------------------------- columnar operators
    def _base_arrays(self, name: str):
        base = self.db[name]
        key = (name, id(base), len(base))
        hit = self._base_cache.get(key)
        if hit is None:
            hit = _columnar.encode_base(base, self._interner)
            self._base_cache[key] = hit
        return hit

    def _eval(self, plan: Plan) -> _BoundsRel:
        if isinstance(plan, Scan):
            return self._scan(plan)
        if isinstance(plan, Select):
            rel = self._eval(plan.child)
            mask = np.ones(len(rel), dtype=bool)
            for attr, value in plan.conditions:
                code = self._interner.code_of(value)
                if code is None:
                    mask[:] = False
                else:
                    mask &= rel.codes[:, rel.index_of(attr)] == code
            return rel.take(np.flatnonzero(mask))
        if isinstance(plan, Filter):
            rel = self._eval(plan.child)
            mask = np.ones(len(rel), dtype=bool)
            for comparison in plan.predicates:
                mask &= comparison.mask(rel)
            return rel.take(np.flatnonzero(mask))
        if isinstance(plan, Project):
            return self._project(self._eval(plan.child), plan.attributes)
        if isinstance(plan, Join):
            return self._join(
                self._eval(plan.left), self._eval(plan.right), plan.on
            )
        raise PlanError(f"unknown plan node {plan!r}")

    def _scan(self, scan: Scan) -> _BoundsRel:
        base = self.db[scan.relation]
        codes, probs = self._base_arrays(scan.relation)
        if scan.terms is None:
            return _BoundsRel(
                base.schema.attributes, codes, probs, probs, self._interner
            )
        if len(scan.terms) != base.schema.arity:
            raise PlanError(
                f"scan of {scan.relation}: {len(scan.terms)} terms for arity "
                f"{base.schema.arity}"
            )
        mask = np.ones(len(base), dtype=bool)
        var_first: dict[str, int] = {}
        for i, t in enumerate(scan.terms):
            if isinstance(t, Constant):
                code = self._interner.code_of(t.value)
                mask = (
                    mask & (codes[:, i] == code)
                    if code is not None
                    else np.zeros(len(base), dtype=bool)
                )
            elif t.name in var_first:
                mask &= codes[:, i] == codes[:, var_first[t.name]]
            else:
                var_first[t.name] = i
        idx = np.flatnonzero(mask)
        positions = list(var_first.values())
        sub = (
            codes[idx][:, positions]
            if positions
            else np.empty((idx.size, 0), dtype=np.int64)
        )
        return _BoundsRel(
            tuple(var_first), sub, probs[idx], probs[idx], self._interner
        )

    def _project(self, rel: _BoundsRel, attributes) -> _BoundsRel:
        positions = [rel.index_of(a) for a in attributes]
        n = len(rel)
        cols = [rel.codes[:, j] for j in positions]
        gid, groups, first = _columnar._group_first_occurrence(n, cols)
        if groups == 0:
            return _BoundsRel(
                attributes,
                np.empty((0, len(positions)), dtype=np.int64),
                np.empty(0),
                np.empty(0),
                self._interner,
            )
        up = _or_fold(gid, groups, first, rel.up)
        lo = _or_fold(gid, groups, first, rel.lo)
        return _BoundsRel(
            attributes,
            rel.codes[first][:, positions]
            if positions
            else np.empty((groups, 0), dtype=np.int64),
            up,
            np.minimum(lo, up),
            self._interner,
        )

    def _join(self, left: _BoundsRel, right: _BoundsRel, on) -> _BoundsRel:
        lpos = [left.index_of(a) for a in on]
        rpos = [right.index_of(a) for a in on]
        keep = [
            i for i, a in enumerate(right.attributes) if a not in set(on)
        ]
        nl, nr = len(left), len(right)
        # Per-key fanout of each side seen from the other: the dissociation
        # degree c of every row (how many copies its partner-joins create).
        fused = _columnar._fuse(
            nl + nr,
            [
                np.concatenate([left.codes[:, lj], right.codes[:, rj]])
                for lj, rj in zip(lpos, rpos)
            ],
        )
        lkeys, rkeys = fused[:nl], fused[nl:]
        uniq, inverse = np.unique(np.concatenate([lkeys, rkeys]),
                                  return_inverse=True)
        linv, rinv = inverse[:nl], inverse[nl:]
        lcount = np.bincount(linv, minlength=uniq.size)
        rcount = np.bincount(rinv, minlength=uniq.size)
        lo_l, nsplit = _split_lower(left.lo, rcount[linv])
        self._dissociated += nsplit
        lo_r, nsplit = _split_lower(right.lo, lcount[rinv])
        self._dissociated += nsplit
        # Pair enumeration, exactly like pl_join_raw.
        r_order = np.argsort(rkeys, kind="stable")
        sorted_rkeys = rkeys[r_order]
        starts = np.searchsorted(sorted_rkeys, lkeys, "left")
        ends = np.searchsorted(sorted_rkeys, lkeys, "right")
        counts = ends - starts
        li = np.repeat(np.arange(nl), counts)
        ri = r_order[_columnar._concat_ranges(starts, counts)]
        codes = np.concatenate(
            [
                left.codes[li],
                right.codes[ri][:, keep]
                if keep
                else np.empty((li.size, 0), dtype=np.int64),
            ],
            axis=1,
        )
        return _BoundsRel(
            left.attributes
            + tuple(a for a in right.attributes if a not in set(on)),
            codes,
            left.up[li] * right.up[ri],
            lo_l[li] * lo_r[ri],
            self._interner,
        )


def dissociation_bounds(
    db: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    join_order: list[str] | None = None,
) -> DissociationResult:
    """One-shot convenience: bounds for *query*'s left-deep plan."""
    return DissociationEvaluator(db).evaluate_query(
        query, join_order
    )
