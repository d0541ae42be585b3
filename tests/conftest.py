"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.db import ProbabilisticDatabase, brute_force_probability
from repro.query.grounding import world_satisfies
from repro.query.syntax import ConjunctiveQuery


def make_rst_database(
    rng: random.Random,
    *,
    max_dom: int = 3,
    deterministic_bias: float = 0.3,
    max_uncertain: int = 14,
) -> ProbabilisticDatabase:
    """A small random R(A), S(A,B), T(B) database for oracle comparisons.

    Tuples are included with random probability; a fraction is deterministic
    so that data-safety paths (Proposition 3.2's ``p = 1`` exemption) get
    exercised. The number of uncertain tuples stays brute-forceable.
    """
    db = ProbabilisticDatabase()
    dom = range(rng.randint(1, max_dom))

    def prob() -> float:
        if rng.random() < deterministic_bias:
            return 1.0
        return rng.uniform(0.05, 0.95)

    r = {}
    for a in dom:
        if rng.random() < 0.8:
            r[(a,)] = prob()
    s = {}
    for a in dom:
        for b in dom:
            if rng.random() < 0.6:
                s[(a, b)] = prob()
    t = {}
    for b in dom:
        if rng.random() < 0.8:
            t[(b,)] = prob()
    db.add_relation("R", ("A",), r)
    db.add_relation("S", ("A", "B"), s)
    db.add_relation("T", ("B",), t)
    # Trim uncertainty if needed (cannot happen with max_dom=3, kept defensive).
    assert len(db.uncertain_tuples()) <= max_uncertain
    return db


def oracle_probability(query: ConjunctiveQuery, db: ProbabilisticDatabase) -> float:
    """Ground-truth Boolean probability by possible-worlds enumeration."""
    return brute_force_probability(db, lambda w: world_satisfies(query, w))


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(20260706)


def rst_lineage(n: int, density: float, seed: int):
    """``R(x), S(x,y), T(y)`` lineage over a random bipartite graph: the
    shape of the non-hierarchical query. Every ``S`` variable is private to
    its clause; the ``R`` and ``T`` variables form the bipartite graph whose
    width decides the exact engine."""
    from repro.lineage.dnf import DNF, EventVar

    rng = random.Random(seed)
    r = [EventVar("R", (i,)) for i in range(n)]
    t = [EventVar("T", (j,)) for j in range(n)]
    clauses, probs = [], {v: rng.uniform(0.1, 0.9) for v in r + t}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                s = EventVar("S", (i, j))
                probs[s] = rng.uniform(0.1, 0.9)
                clauses.append(frozenset({r[i], s, t[j]}))
    return DNF(clauses), probs


#: ``rst_lineage`` parameters whose min-degree width (18) is over the exact
#: solver's elimination limit (16): genuinely hard, so DPLL runs — and does
#: not finish in 100 000 calls. (A complete K_{n,n} with equal probabilities
#: is as wide, but its symmetric cofactors all hit the memo.)
WIDE_RST = (18, 0.8, 1)


def rst_database(n: int, density: float, seed: int) -> ProbabilisticDatabase:
    """One head of Table 1's P1 (``R1(h,x), S1(h,x,y), R2(h,y)``) whose
    lineage is ``rst_lineage(n, density, seed)``."""
    dnf, probs = rst_lineage(n, density, seed)
    rows = {"R": {}, "S": {}, "T": {}}
    for v in sorted(dnf.variables()):
        rows[v.relation][(0,) + v.row] = probs[v]
    db = ProbabilisticDatabase()
    db.add_relation("R1", ("H", "A"), rows["R"])
    db.add_relation("S1", ("H", "A", "B"), rows["S"])
    db.add_relation("R2", ("H", "B"), rows["T"])
    return db


def rst_network(n: int, density: float, seed: int, components: int = 1):
    """``(network, roots)``: *components* independent copies of the And-Or
    network whose root lineage is ``rst_lineage(n, density, seed + k)``."""
    from repro.core.network import AndOrNetwork, NodeKind

    net = AndOrNetwork()
    roots = []
    for k in range(components):
        dnf, probs = rst_lineage(n, density, seed + k)
        leaf = {v: net.add_leaf(probs[v]) for v in sorted(dnf.variables())}
        roots.append(net.add_gate(NodeKind.OR, [
            (net.add_gate(
                NodeKind.AND, [(leaf[v], 1.0) for v in sorted(c)]), 1.0)
            for c in sorted(dnf.clauses, key=sorted)
        ]))
    return net, roots


def recording_budget():
    """``(budget, stages)``: an unlimited budget that appends the stage of
    every checkpoint it is asked for to *stages*."""
    from repro.resilience import QueryBudget

    stages: list[str] = []

    class Recording(QueryBudget):
        def checkpoint(self, stage: str = "") -> None:
            stages.append(stage)

    return Recording(), stages
