"""Block world sampling cross-checked against exact evaluation.

Includes the exact-vs-MC cross-check on the Figure 4 walkthrough instance:
the paper's running example database, whose Boolean probability the
possible-worlds oracle computes, must be reproduced by the sampler.
"""

import random

import numpy as np
import pytest

from repro.bid import BIDDatabase
from repro.db import ProbabilisticDatabase
from repro.lineage.dnf import EventVar
from repro.lineage.sampling import WorldLayout
from repro.mc import mc_answer_probabilities, mc_query_probability
from repro.query.parser import parse_query

from tests.conftest import make_rst_database, oracle_probability


def fig4_database() -> ProbabilisticDatabase:
    """The Figure 4 walkthrough instance (examples/walkthrough_fig4.py)."""
    db = ProbabilisticDatabase()
    db.add_relation(
        "R", ("A",),
        {("a1",): 0.5, ("a2",): 0.5, ("a3",): 0.3, ("a4",): 0.4},
    )
    db.add_relation(
        "S", ("A", "B"),
        {
            ("a1", "b1"): 0.11, ("a1", "b2"): 0.12,
            ("a2", "b1"): 0.13, ("a2", "b2"): 0.14,
            ("a3", "b1"): 0.15, ("a4", "b1"): 0.16,
        },
    )
    db.add_relation("T", ("B",), {("b1",): 0.2, ("b2",): 0.3})
    return db


def test_fig4_exact_vs_mc_cross_check():
    db = fig4_database()
    q = parse_query("R(x), S(x,y), T(y)")
    exact = oracle_probability(q, db)
    est = mc_query_probability(q, db, 50000, random.Random(1))
    assert est == pytest.approx(exact, abs=0.01)


def test_fig4_answer_probabilities_vectorized():
    from repro.core.executor import PartialLineageEvaluator

    db = fig4_database()
    q = parse_query("q(x) :- R(x), S(x,y), T(y)")
    exact = PartialLineageEvaluator(db).evaluate_query(q).answer_probabilities()
    est = mc_answer_probabilities(q, db, 60000, random.Random(2))
    assert set(est) <= set(exact)
    for row, p in exact.items():
        assert est.get(row, 0.0) == pytest.approx(p, abs=0.01)


def test_sample_worlds_bid_block_exclusivity():
    """Sampled worlds hold at most one alternative per block, each at its
    marginal; a block whose alternatives sum below 1 yields none with the
    remainder."""
    db = BIDDatabase()
    db.add_relation(
        "L", ("P", "C"), ("P",),
        {("ann", "paris"): 0.6, ("ann", "tokyo"): 0.4,
         ("bob", "paris"): 0.5, ("bob", "oslo"): 0.3},
    )
    variables = sorted(EventVar("L", row) for row in db["L"])
    p = np.array([db["L"].probability(v.row) for v in variables])
    layout = WorldLayout.of(p, [db.block_of(v) for v in variables])
    worlds = layout.draw(np.random.default_rng(6), 20000)
    ann = [i for i, v in enumerate(variables) if v.row[0] == "ann"]
    bob = [i for i, v in enumerate(variables) if v.row[0] == "bob"]
    assert (worlds[:, ann].sum(axis=1) <= 1).all()
    assert (worlds[:, bob].sum(axis=1) <= 1).all()
    assert worlds.mean(axis=0) == pytest.approx(p, abs=0.02)
    assert (~worlds[:, bob].any(axis=1)).mean() == pytest.approx(0.2, abs=0.02)


def test_answer_frequencies_track_tuple_marginals(rng):
    """Asking for every tuple of a relation reads each tuple's sampled
    frequency: it tracks the marginal, TI and BID alike."""
    bid = BIDDatabase()
    bid.add_relation(
        "L", ("P", "C"), ("P",),
        {("ann", "paris"): 0.6, ("ann", "tokyo"): 0.4, ("bob", "oslo"): 1.0},
    )
    for db in (make_rst_database(rng), bid):
        for rel in db:
            vars_ = ", ".join(f"x{i}" for i in range(rel.schema.arity))
            q = parse_query(f"q({vars_}) :- {rel.name}({vars_})")
            est = mc_answer_probabilities(q, db, 20000, random.Random(5))
            for row in rel:
                assert est.get(row, 0.0) == pytest.approx(
                    rel.probability(row), abs=0.02
                )
