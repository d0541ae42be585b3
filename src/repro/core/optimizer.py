"""Plan selection: Section 8's open problem, made executable.

The paper evaluates fixed left-deep plans and leaves open "how to choose a
query plan that minimizes the size or the treewidth of the output network",
noting the algorithm is very sensitive to it. This module provides a
practical optimiser:

* enumerate left-deep join orders, preferring orders whose every prefix stays
  connected (cross products make *every* uncertain tuple offending — the
  join-order ablation bench shows a 10-100x network blow-up);
* cost each order by actually running the — extensional-dominated, hence
  cheap — plan evaluation *without final inference*, recording the offending
  count, network size, and a treewidth estimate of the resulting network;
* return the best order under the lexicographic cost
  ``(offending, width estimate, network size, intermediate tuples)``.

The width estimate (min-degree elimination over the network's factors) costs
far more than the evaluation itself, and it only decides between orders tied
on the offending count. :func:`choose_join_order` therefore evaluates every
order once for its offending count and computes the full cost only for the
orders at the minimum count.

Evaluation-based costing is exact where estimation formulas would guess: the
offending set of a later join depends on earlier operators' output, which is
precisely the data-dependence that makes the problem open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.executor import PartialLineageEvaluator
from repro.core.inference import induced_width, network_factors
from repro.core.plan import left_deep_plan
from repro.db.database import ProbabilisticDatabase
from repro.errors import PlanError
from repro.query.syntax import ConjunctiveQuery


@dataclass(frozen=True)
class PlanChoice:
    """One costed join order."""

    order: tuple[str, ...]
    offending: int
    width_estimate: int
    network_nodes: int
    intermediate_tuples: int

    @property
    def cost(self) -> tuple[int, int, int, int]:
        """Lexicographic cost: offending first (the paper's safety distance)."""
        return (
            self.offending,
            self.width_estimate,
            self.network_nodes,
            self.intermediate_tuples,
        )


def connected_prefix_orders(query: ConjunctiveQuery):
    """Left-deep orders whose every prefix is variable-connected.

    Head variables do not connect atoms (they are fixed per evaluation), so
    e.g. ``R1, R2`` is *not* a connected prefix of P1 even though both atoms
    mention ``h``. Falls back to all permutations for disconnected queries.
    """
    head = {v.name for v in query.head}
    vars_of = {
        a.relation: {v.name for v in a.variables()} - head for a in query.atoms
    }
    names = [a.relation for a in query.atoms]

    def extend(prefix: tuple[str, ...], seen: set[str]):
        if len(prefix) == len(names):
            yield prefix
            return
        for name in names:
            if name in prefix:
                continue
            if seen and not (vars_of[name] & seen):
                continue
            yield from extend(prefix + (name,), seen | vars_of[name])

    produced = False
    for order in extend((), set()):
        produced = True
        yield order
    if not produced:
        yield from itertools.permutations(names)


def cost_order(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    order: tuple[str, ...],
    *,
    evaluator: PartialLineageEvaluator | None = None,
) -> PlanChoice:
    """Evaluate the order's plan (no inference) and extract its cost.

    Pass a shared *evaluator* when costing many orders so it reuses its
    base-relation encodings across evaluations.
    """
    if evaluator is None:
        evaluator = PartialLineageEvaluator(db)
    result = evaluator.evaluate(left_deep_plan(query, list(order)))
    net = result.network
    return PlanChoice(
        order=tuple(order),
        offending=result.offending_count,
        width_estimate=induced_width(network_factors(net)) if len(net) > 1 else 0,
        network_nodes=len(net),
        intermediate_tuples=sum(s.output_size for s in result.stats),
    )


def choose_join_order(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    *,
    max_orders: int = 120,
) -> PlanChoice:
    """Pick the cheapest left-deep join order for *query* on *db*.

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> _ = db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    >>> _ = db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
    >>> choice = choose_join_order(parse_query("R(x), S(x,y), T(y)"), db)
    >>> choice.order[0] in ("T", "S")   # conditioning R first is avoidable
    True

    Costs the first *max_orders* of :func:`connected_prefix_orders` in two
    passes over one shared evaluator (each base relation is encoded once for
    the whole search): the first evaluates every order for its offending
    count, the second runs :func:`cost_order` only on the orders at the
    minimum count. The cost is lexicographic with the count first, so this
    returns the first order, in enumeration order, of least full cost.
    """
    orders = list(
        itertools.islice(connected_prefix_orders(query), max(max_orders, 0))
    )
    if not orders:
        raise PlanError(f"no left-deep order found for {query}")
    evaluator = PartialLineageEvaluator(db)
    counts = [
        evaluator.evaluate(left_deep_plan(query, list(order))).offending_count
        for order in orders
    ]
    least = min(counts)
    return min(
        (
            cost_order(query, db, order, evaluator=evaluator)
            for order, count in zip(orders, counts)
            if count == least
        ),
        key=lambda choice: choice.cost,
    )
