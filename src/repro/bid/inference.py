"""Exact query evaluation on BID databases.

The intensional route generalises cleanly: ground the lineage DNF exactly as
for tuple-independent data (each block *alternative* is an event variable),
then run a DPLL whose Shannon step branches over a **block** — one branch per
alternative plus one for "no alternative" — instead of a variable's
true/false. Choosing an alternative makes its block-mates false, so the
mutual exclusion is enforced structurally, and the independent-component and
memoisation machinery carries over with one change: components must be
merged when they share a *block*, not just a variable.

On singleton blocks the branching degenerates to the plain Shannon expansion,
and the solver coincides with :func:`repro.lineage.exact.dnf_probability` —
tested.
"""

from __future__ import annotations

from typing import Mapping

from repro.bid.relation import BIDDatabase
from repro.errors import InferenceError
from repro.lineage.dnf import DNF, EventVar, lineage_of_query
from repro.lineage.masks import (
    Formula,
    bits,
    branch_bit,
    deep_recursion,
    encode,
    split,
)
from repro.query.syntax import ConjunctiveQuery


class _BlockSolver:
    """Block-at-a-time DPLL over :mod:`repro.lineage.masks` formulas."""

    def __init__(
        self,
        probs: list[float],
        block_of: list[int],
        blocks: list[list[int]],
        none_probs: list[float],
        max_calls: int,
    ) -> None:
        self.probs = probs
        self.block_of = block_of
        self.blocks = blocks
        #: per block, the mask of all its alternatives
        self.block_masks = [sum(1 << m for m in members) for members in blocks]
        self.none_probs = none_probs
        self.max_calls = max_calls
        self.calls = 0
        self.memo: dict[Formula, float] = {}

    def probability(self, formula: Formula) -> float:
        self.calls += 1
        if self.calls > self.max_calls:
            raise InferenceError(
                f"block-DPLL exceeded the budget of {self.max_calls} calls"
            )
        if not formula:
            return 0.0
        if 0 in formula:
            return 1.0
        hit = self.memo.get(formula)
        if hit is not None:
            return hit
        groups = self._components(formula)
        if len(groups) > 1:
            failure = 1.0
            for g in groups:
                failure *= 1.0 - self._branch(g)
                if failure == 0.0:
                    break
            result = 1.0 - failure
        else:
            result = self._branch(formula)
        self.memo[formula] = result
        return result

    def _components(self, formula: Formula) -> list[Formula]:
        """Clauses grouped by connectivity through shared variables OR
        shared blocks (block-mates are correlated even if never co-located
        in a clause): split on each clause's mask widened to its blocks."""
        by_reach: dict[int, list[int]] = {}
        for c in formula:
            reach = c
            for v in bits(c):
                reach |= self.block_masks[self.block_of[v]]
            by_reach.setdefault(reach, []).append(c)
        return [
            frozenset(c for reach in g for c in by_reach[reach])
            for g in split(frozenset(by_reach))
        ]

    def _branch(self, formula: Formula) -> float:
        block_id = self.block_of[branch_bit(formula).bit_length() - 1]
        block = self.block_masks[block_id]
        total = 0.0
        for alt in self.blocks[block_id]:
            p = self.probs[alt]
            if p > 0.0:
                total += p * self._given(formula, block, 1 << alt)
        none_p = self.none_probs[block_id]
        if none_p > 0.0:
            total += none_p * self._given(formula, block, 0)
        return total

    def _given(self, formula: Formula, block: int, chosen: int) -> float:
        """Probability once the block's outcome is known: the *chosen*
        alternative (a one-bit mask; 0 for none) is true and leaves its
        clauses, every other member is false and takes its clauses along."""
        others = block ^ chosen
        conditioned = frozenset(
            [c & ~chosen for c in formula if not c & others]
        )
        if 0 in conditioned:
            return 1.0
        if not conditioned:
            return 0.0
        return self.probability(conditioned)


def block_dnf_probability(
    dnf: DNF,
    probs: Mapping[EventVar, float],
    block_key,
    none_probability,
    max_calls: int = 2_000_000,
) -> float:
    """Probability of a DNF whose variables live in exclusive blocks.

    Parameters
    ----------
    dnf / probs:
        The formula and the alternatives' marginal probabilities.
    block_key:
        Function mapping an :class:`EventVar` to a hashable block identity;
        variables sharing it are mutually exclusive.
    none_probability:
        Function mapping a block identity to the probability that the block
        yields *no* alternative at all. For blocks only partially mentioned
        by the formula, fold the unmentioned alternatives into this value.
    """
    if dnf.is_true:
        return 1.0
    if dnf.is_false:
        return 0.0
    variables = sorted(dnf.variables())
    ids = {v: i for i, v in enumerate(variables)}
    p = [float(probs[v]) for v in variables]
    block_ids: dict[object, int] = {}
    block_of: list[int] = []
    blocks: list[list[int]] = []
    none_probs: list[float] = []
    for v in variables:
        key = block_key(v)
        if key not in block_ids:
            block_ids[key] = len(blocks)
            blocks.append([])
            none_probs.append(float(none_probability(key)))
        bid = block_ids[key]
        block_of.append(bid)
        blocks[bid].append(ids[v])
    for bid, members in enumerate(blocks):
        total = sum(p[m] for m in members) + none_probs[bid]
        if total > 1.0 + 1e-6:
            raise InferenceError(
                f"block {bid} probabilities sum to {total} > 1"
            )
    solver = _BlockSolver(p, block_of, blocks, none_probs, max_calls)
    with deep_recursion(len(variables)):
        return solver.probability(encode(dnf.clauses, ids))


def bid_query_probability(
    query: ConjunctiveQuery, db: BIDDatabase, max_calls: int = 2_000_000
) -> float:
    """Exact ``Pr(q)`` on a BID database, via block-aware lineage inference.

    Examples
    --------
    >>> db = BIDDatabase()
    >>> _ = db.add_relation("L", ("person", "city"), ("person",),
    ...     {("ann", "paris"): 0.6, ("ann", "tokyo"): 0.4})
    >>> _ = db.add_relation("C", ("city",), ("city",), {("paris",): 0.5})
    >>> q = __import__("repro.query.parser", fromlist=["parse_query"]
    ...     ).parse_query("L(x, y), C(y)")
    >>> round(bid_query_probability(q, db), 6)
    0.3
    """
    dnf, probs = lineage_of_query(query, db)
    if dnf.is_false:
        return 0.0
    mentioned: dict[object, float] = {}
    for v in sorted(dnf.variables()):
        key = db.block_of(v)
        mentioned[key] = mentioned.get(key, 0.0) + probs[v]

    def none_probability(key) -> float:
        # alternatives not mentioned by the lineage behave exactly like the
        # block's "no tuple" outcome as far as the formula is concerned
        return max(0.0, 1.0 - mentioned[key])

    return block_dnf_probability(
        dnf, probs, db.block_of, none_probability, max_calls
    )
