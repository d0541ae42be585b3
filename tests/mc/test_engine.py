"""Tests for the MCDB-style Monte-Carlo estimators."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.bid import BIDDatabase, bid_query_probability
from repro.db import ProbabilisticDatabase
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.sampling import monte_carlo_answers
from repro.mc import mc_answer_probabilities, mc_query_probability
from repro.query.parser import parse_query

from tests.conftest import make_rst_database, oracle_probability


def bid_model_database() -> BIDDatabase:
    """The instance of ``examples/bid_model.py``."""
    db = BIDDatabase()
    db.add_relation(
        "LivesIn", ("person", "city"), ("person",),
        {
            ("ann", "paris"): 0.6, ("ann", "tokyo"): 0.4,
            ("bob", "paris"): 0.5, ("bob", "oslo"): 0.3,
            ("eva", "oslo"): 0.8,
        },
    )
    db.add_relation(
        "Covered", ("city",), ("city",), {("paris",): 0.9, ("oslo",): 0.7}
    )
    return db


def test_sample_world_respects_certainty():
    """A probability-1 tuple holds in every sampled world."""
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 1.0, (2,): 0.5})
    est = mc_answer_probabilities(
        parse_query("q(a) :- R(a)"), db, 500, random.Random(0)
    )
    assert est[(1,)] == 1.0
    assert est[(2,)] == pytest.approx(0.5, abs=0.1)


def test_mc_probability_converges(rng):
    q = parse_query("R(x), S(x,y), T(y)")
    db = make_rst_database(rng)
    est = mc_query_probability(q, db, 30000, random.Random(1))
    assert est == pytest.approx(oracle_probability(q, db), abs=0.02)


def test_mc_answer_probabilities(rng):
    from repro.core.executor import PartialLineageEvaluator

    db = make_rst_database(rng)
    q = parse_query("q(x) :- R(x), S(x,y)")
    exact = PartialLineageEvaluator(db).evaluate_query(q).answer_probabilities()
    est = mc_answer_probabilities(q, db, 30000, random.Random(2))
    for row, p in exact.items():
        assert est.get(row, 0.0) == pytest.approx(p, abs=0.02)


def test_mc_on_bid_database():
    db = BIDDatabase()
    db.add_relation(
        "L", ("P", "C"), ("P",),
        {("ann", "paris"): 0.6, ("ann", "tokyo"): 0.4},
    )
    db.add_relation("C", ("C",), ("C",), {("paris",): 0.5})
    # A clause needing two alternatives of one block never holds: the
    # lineage of L('ann','paris') ∧ L('ann','tokyo'). (The query spelling
    # of it is a self-join, which the parser rejects.)
    both = frozenset(
        EventVar("L", ("ann", city)) for city in ("paris", "tokyo")
    )
    probs = {v: db["L"].probability(v.row) for v in both}
    assert monte_carlo_answers(
        {(): DNF([both])}, probs, 30000, random.Random(3),
        block_key=db.block_of,
    ).get((), 0.0) == 0.0
    q = parse_query("L(x,y), C(y)")
    est = mc_query_probability(q, db, 30000, random.Random(4))
    assert est == pytest.approx(0.3, abs=0.02)


def test_sample_count_validation():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    q = parse_query("R(x)")
    with pytest.raises(ValueError):
        mc_query_probability(q, db, 0)
    with pytest.raises(ValueError):
        mc_answer_probabilities(q, db, -1)


def test_bid_estimates_match_block_dpll():
    db = bid_model_database()
    q = parse_query("LivesIn(x, y), Covered(y)")
    est = mc_query_probability(q, db, 30000, random.Random(5))
    assert est == pytest.approx(bid_query_probability(q, db), abs=0.02)
    per_person = mc_answer_probabilities(
        parse_query("q(x) :- LivesIn(x, y), Covered(y)"), db, 30000,
        random.Random(6),
    )
    assert set(per_person) == {("ann",), ("bob",), ("eva",)}
    for (person,), p in per_person.items():
        exact = bid_query_probability(
            parse_query(f"LivesIn('{person}', y), Covered(y)"), db
        )
        assert p == pytest.approx(exact, abs=0.02)


#: TI and BID estimates at fixed seeds, printed in sorted order. The BID
#: instance grounds over sets of string tuples, whose order follows the
#: hash seed; the estimates must not.
HASH_SEED_SCRIPT = textwrap.dedent(
    """
    import random

    from repro.mc import mc_answer_probabilities, mc_query_probability
    from repro.query.parser import parse_query
    from repro.workload import WorkloadParams, generate_database
    from repro.workload.queries import benchmark_query
    from tests.mc.test_engine import bid_model_database

    ti = generate_database(WorkloadParams(N=3, m=8, r_f=0.3, seed=0))
    bid = bid_model_database()
    for db, q in ((ti, benchmark_query("P1").query),
                  (bid, parse_query("q(x) :- LivesIn(x, y), Covered(y)"))):
        est = mc_answer_probabilities(q, db, 5000, random.Random(1))
        print(sorted(est.items()))
        print(repr(mc_query_probability(q, db, 5000, random.Random(2))))
    """
)


def test_estimates_do_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        runs.append(done.stdout)
    lines = runs[0].splitlines()
    assert len(lines) == 4, runs[0]
    assert "(2,)" in lines[0] and "'ann'" in lines[2], runs[0]
    assert runs[0] == runs[1]
