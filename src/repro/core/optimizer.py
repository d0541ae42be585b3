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

Evaluation-based costing is exact where estimation formulas would guess: the
offending set of a later join depends on earlier operators' output, which is
precisely the data-dependence that makes the problem open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.executor import EvaluationResult, PartialLineageEvaluator
from repro.core.inference import induced_width, network_factors
from repro.core.plan import Plan, Scan, left_deep_plan
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
    return _choice_from_result(order, result)


def _choice_from_result(
    order: tuple[str, ...], result: EvaluationResult
) -> PlanChoice:
    net = result.network
    if len(net) > 1:
        width = induced_width(network_factors(net))
    else:
        width = 0
    return PlanChoice(
        order=tuple(order),
        offending=result.offending_count,
        width_estimate=width,
        network_nodes=len(net),
        intermediate_tuples=sum(s.output_size for s in result.stats),
    )


def estimate_order(
    query: ConjunctiveQuery, db: ProbabilisticDatabase, order: tuple[str, ...]
) -> PlanChoice:
    """Statistics-only costing: no evaluation, no network.

    Uses fanout profiles (Proposition 3.2's predicate on base relations) to
    count the *first* join's offending tuples exactly, and charges later
    joins optimistically by their base-side uncertain-multi statistics. The
    width/size fields are left at 0 — this mode ranks orders by predicted
    conditioning only, trading the exactness of :func:`cost_order` for
    constant-time costing on large instances.
    """
    from repro.core.explain import scan_base_key
    from repro.core.safety import join_offending_tuples
    from repro.db.statistics import fanout_profile

    atom_by_name = {a.relation: a for a in query.atoms}

    def join_vars(done, name: str) -> tuple[str, ...]:
        # exactly the attributes left_deep_plan joins on: shared variables
        # between the prefix and the fresh atom (head variables included)
        prior = {v.name for d in done for v in atom_by_name[d].variables()}
        mine = {v.name for v in atom_by_name[name].variables()}
        return tuple(sorted(prior & mine))

    def base_key(name: str, names: tuple[str, ...]) -> tuple[str, ...]:
        # *names* are variables of the atom, so the lookup always succeeds
        return scan_base_key(Scan(name, atom_by_name[name].terms), db, names)[1]

    offending = 0
    done: list[str] = []
    for i, name in enumerate(order):
        if i > 0:
            shared = join_vars(done, name)
            if shared:
                # the fresh (base) side's exact worst case against any left
                profile = fanout_profile(db[name], base_key(name, shared))
                offending += profile.uncertain_multi if i > 1 else 0
                if i == 1:
                    lrel, rrel = db[done[0]], db[name]
                    lkey = base_key(done[0], shared)
                    rkey = base_key(name, shared)
                    offending += len(
                        join_offending_tuples(lrel, rrel, lkey, rkey)
                    ) + len(join_offending_tuples(rrel, lrel, rkey, lkey))
            else:
                # cross product: every uncertain tuple of the smaller side
                offending += min(
                    len(db[name].uncertain_rows()),
                    sum(len(db[d].uncertain_rows()) for d in done),
                )
        done.append(name)
    return PlanChoice(
        order=tuple(order),
        offending=offending,
        width_estimate=0,
        network_nodes=0,
        intermediate_tuples=0,
    )


def choose_join_order(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    *,
    max_orders: int = 120,
    mode: str = "evaluate",
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

    ``mode="estimate"`` ranks orders from base-relation statistics only
    (constant cost per order, approximate); the default ``"evaluate"`` runs
    the cheap extensional evaluation per order (exact offending counts).
    One evaluator is shared across all candidate orders, so each base
    relation is encoded only once for the whole search.
    """
    if mode not in ("evaluate", "estimate"):
        raise PlanError(f"unknown optimiser mode {mode!r}")
    if mode == "evaluate":
        shared = PartialLineageEvaluator(db)

        def cost(q, d, order):
            return cost_order(q, d, order, evaluator=shared)
    else:
        cost = estimate_order
    best: PlanChoice | None = None
    for i, order in enumerate(connected_prefix_orders(query)):
        if i >= max_orders:
            break
        choice = cost(query, db, tuple(order))
        if best is None or choice.cost < best.cost:
            best = choice
    if best is None:
        raise PlanError(f"no left-deep order found for {query}")
    return best


def optimized_plan(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase,
    *,
    max_orders: int = 120,
) -> Plan:
    """The left-deep plan for the order chosen by :func:`choose_join_order`."""
    return left_deep_plan(
        query, list(choose_join_order(query, db, max_orders=max_orders).order)
    )
