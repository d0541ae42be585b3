"""End-to-end tests for the partial-lineage executor, including the paper's
running example (Sections 4.1-4.2, Figure 4)."""

import pytest

from repro.core.columnar import ValueInterner, from_base, pl_join, project
from repro.core.executor import PartialLineageEvaluator
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.db import ProbabilisticDatabase
from repro.errors import PlanError
from repro.extensional import lifted_probability, safe_plan
from repro.query.parser import parse_query

from tests.conftest import make_rst_database, oracle_probability


def sec42_database() -> ProbabilisticDatabase:
    """The instance of Section 4.2: a1, a2 violate the FD x→y in S."""
    db = ProbabilisticDatabase()
    db.add_relation(
        "R", ("A",), {("a1",): 0.5, ("a2",): 0.5, ("a3",): 0.3, ("a4",): 0.4}
    )
    db.add_relation(
        "S",
        ("A", "B"),
        {
            ("a1", "b1"): 0.11,
            ("a1", "b2"): 0.12,
            ("a2", "b1"): 0.13,
            ("a2", "b2"): 0.14,
            ("a3", "b1"): 0.15,
            ("a4", "b1"): 0.16,
        },
    )
    db.add_relation("T", ("B",), {("b1",): 0.2, ("b2",): 0.3})
    return db


def test_sec42_partial_lineage_numbers():
    """Replays the Section 4.2 pipeline by hand and checks the partial
    lineage printed in the paper: π_y(R ⋈ S) = {(b1, 0.11r1 ∨ 0.13r2 ∨
    0.10612), (b2, 0.12r1 ∨ 0.14r2)}."""
    db = sec42_database()
    net, interner = AndOrNetwork(), ValueInterner()
    r = from_base(db["R"], net, interner)
    s = from_base(db["S"], net, interner)
    joined, conditioned = pl_join(r, s, ("A",))
    assert conditioned == 2  # a1 and a2 are the offending tuples
    projected = project(joined, ("B",)).to_rows()
    joined = joined.to_rows()
    # the join kept the conditioned variables symbolic and folded the rest
    assert joined.probability(("a3", "b1")) == pytest.approx(0.3 * 0.15)
    assert joined.probability(("a4", "b1")) == pytest.approx(0.4 * 0.16)
    b1 = projected.lineage(("b1",))
    assert net.kind(b1) is NodeKind.OR
    parents = dict(net.parents(b1))
    r1 = joined.lineage(("a1", "b1"))
    r2 = joined.lineage(("a2", "b1"))
    assert parents[r1] == pytest.approx(0.11)
    assert parents[r2] == pytest.approx(0.13)
    assert parents[EPSILON] == pytest.approx(0.10612)  # 1 - (1-.045)(1-.064)
    b2 = projected.lineage(("b2",))
    parents2 = dict(net.parents(b2))
    assert sorted(parents2.values()) == pytest.approx([0.12, 0.14])
    assert EPSILON not in parents2


def test_sec42_full_query_matches_brute_force():
    db = sec42_database()
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    assert result.offending_count == 2
    assert result.boolean_probability() == pytest.approx(oracle_probability(q, db))


def test_fd_satisfied_instance_is_data_safe():
    """Section 4.1: when S satisfies x→y, the plan π_y(R⋈S)⋈T is data safe
    and evaluation is purely extensional."""
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {("a1",): 0.5, ("a2",): 0.6})
    db.add_relation("S", ("A", "B"), {("a1", "b1"): 0.7, ("a2", "b2"): 0.8})
    db.add_relation("T", ("B",), {("b1",): 0.9, ("b2",): 0.4})
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    assert result.is_data_safe
    assert len(result.network) == 1  # only ε
    assert result.boolean_probability() == pytest.approx(oracle_probability(q, db))


def test_deterministic_instance_is_data_safe():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(a,): 1.0 for a in range(3)})
    db.add_relation(
        "S", ("A", "B"), {(a, b): 1.0 for a in range(3) for b in range(3)}
    )
    db.add_relation("T", ("B",), {(b,): 1.0 for b in range(3)})
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q)
    assert result.is_data_safe
    assert result.boolean_probability() == pytest.approx(1.0)


def test_unsound_merge_guard_end_to_end():
    """The instance that would be answered wrongly if noisy dedup gates were
    hash-merged across groups (see network.py's module docstring)."""
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5, (2,): 0.5})
    db.add_relation(
        "S",
        ("A", "B"),
        {(a, b): 0.5 for a in (1, 2) for b in (1, 2)},
    )
    db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    assert result.boolean_probability() == pytest.approx(0.609375)
    assert result.boolean_probability() == pytest.approx(oracle_probability(q, db))


def test_sec54_hashing_collapses_deterministic_instance():
    """Section 5.4's example: S complete and deterministic makes the dedup
    profiles identical with probability-1 edges, so hashing merges every
    group into ONE Or node and the network stays tree-like."""
    n = 4
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(i,): 0.5 for i in range(n)})
    db.add_relation(
        "S", ("A", "B"), {(i, j): 1.0 for i in range(n) for j in range(n)}
    )
    db.add_relation("T", ("B",), {(j,): 0.5 for j in range(n)})
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    # n conditioned leaves + 1 shared Or node + ε: hashing collapsed the n
    # duplicate groups of π_y to a single node.
    or_nodes = [
        v for v in result.network.nodes()
        if result.network.kind(v) is NodeKind.OR
    ]
    assert len(or_nodes) == 1
    expected = (1 - (1 - 0.5) ** n) ** 2  # Pr(∃R) · Pr(∃T)
    assert result.boolean_probability() == pytest.approx(expected)
    assert result.boolean_probability() == pytest.approx(oracle_probability(q, db))


def test_headed_query_per_answer_probabilities():
    db = ProbabilisticDatabase()
    db.add_relation(
        "R1", ("H", "A"), {(h, a): 0.5 for h in (1, 2) for a in (1, 2)}
    )
    db.add_relation(
        "S1", ("H", "A", "B"),
        {(1, 1, 1): 0.5, (1, 1, 2): 0.6, (1, 2, 1): 0.7, (2, 1, 1): 0.8},
    )
    db.add_relation(
        "R2", ("H", "B"), {(h, b): 0.5 for h in (1, 2) for b in (1, 2)}
    )
    q = parse_query("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R1", "S1", "R2"])
    answers = result.answer_probabilities()

    from repro.db import brute_force_answer_probabilities
    from repro.query.grounding import answers_in_world

    expected = brute_force_answer_probabilities(
        db, lambda w: answers_in_world(q, w)
    )
    assert set(answers) == set(expected)
    for h in expected:
        assert answers[h] == pytest.approx(expected[h]), h


def test_safe_plan_conditions_nothing(rng):
    """A safe plan (Definition 3.3) must be data safe on every instance."""
    q = parse_query("R(x), S(x,y)")
    plan = safe_plan(q)
    for _ in range(25):
        db = make_rst_database(rng)
        result = PartialLineageEvaluator(db).evaluate(plan)
        assert result.is_data_safe
        assert result.boolean_probability() == pytest.approx(
            lifted_probability(q, db)
        )


def test_scan_with_constants_and_repeated_vars():
    db = ProbabilisticDatabase()
    db.add_relation(
        "S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.6, (2, 2): 0.7}
    )
    q = parse_query("S(x, x)")
    result = PartialLineageEvaluator(db).evaluate_query(q)
    # only (1,1) and (2,2) match S(x,x)
    assert result.boolean_probability() == pytest.approx(1 - 0.5 * 0.3)
    q2 = parse_query("S(x, 2)")
    result2 = PartialLineageEvaluator(db).evaluate_query(q2)
    assert result2.boolean_probability() == pytest.approx(1 - 0.4 * 0.3)


def test_boolean_probability_requires_empty_schema():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    from repro.core.plan import Scan

    result = PartialLineageEvaluator(db).evaluate(Scan("R"))
    with pytest.raises(PlanError, match="project"):
        result.boolean_probability()


def test_empty_answer_has_probability_zero():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(2, 1): 0.5})  # no join partner
    q = parse_query("R(x), S(x,y)")
    result = PartialLineageEvaluator(db).evaluate_query(q)
    assert result.boolean_probability() == 0.0


def test_random_instances_match_brute_force(rng):
    """The headline invariant: on random instances of the unsafe q_u, partial
    lineage equals the possible-worlds semantics exactly."""
    q = parse_query("R(x), S(x,y), T(y)")
    evaluated_unsafe = 0
    for _ in range(40):
        db = make_rst_database(rng)
        result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
        assert result.boolean_probability() == pytest.approx(
            oracle_probability(q, db)
        )
        evaluated_unsafe += result.offending_count > 0
    assert evaluated_unsafe > 0  # the sweep did hit genuinely unsafe instances


def test_random_instances_other_join_order(rng):
    q = parse_query("R(x), S(x,y), T(y)")
    for _ in range(20):
        db = make_rst_database(rng)
        result = PartialLineageEvaluator(db).evaluate_query(q, ["T", "S", "R"])
        assert result.boolean_probability() == pytest.approx(
            oracle_probability(q, db)
        )


def test_hashing_ablation_same_probability_bigger_network():
    """Disabling node hashing must not change answers, only network size
    (Section 5.4: hashing is an optimisation, not a semantic change)."""
    n = 4
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(i,): 0.5 for i in range(n)})
    db.add_relation(
        "S", ("A", "B"), {(i, j): 1.0 for i in range(n) for j in range(n)}
    )
    db.add_relation("T", ("B",), {(j,): 0.5 for j in range(n)})
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    fast = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    slow = PartialLineageEvaluator(db, hashing=False).evaluate_query(
        q, ["R", "S", "T"]
    )
    assert slow.boolean_probability() == pytest.approx(
        fast.boolean_probability()
    )
    assert len(slow.network) > len(fast.network)


def test_all_inference_engines_agree(rng):
    """auto / ve / dpll (and tree where applicable) must agree."""
    from repro.core.treeprop import is_tree_factorable

    q = parse_query("R(x), S(x,y), T(y)")
    checked_tree = 0
    for _ in range(10):
        db = make_rst_database(rng)
        result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
        reference = result.answer_probabilities(engine="ve")
        for engine in ("auto", "dpll"):
            got = result.answer_probabilities(engine=engine)
            assert set(got) == set(reference)
            for k in reference:
                assert got[k] == pytest.approx(reference[k]), engine
        if is_tree_factorable(result.network):
            checked_tree += 1
            got = result.answer_probabilities(engine="tree")
            for k in reference:
                assert got[k] == pytest.approx(reference[k])
    assert checked_tree > 0


def test_junction_engine_is_unknown():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    result = PartialLineageEvaluator(db).evaluate_query(
        parse_query("q() :- R(x), S(x,y)"), ["R", "S"]
    )
    with pytest.raises(ValueError, match="unknown inference engine"):
        result.answer_probabilities(engine="junction")


def test_select_plan_node_in_memory():
    from repro.core.plan import Project, Scan, Select

    db = ProbabilisticDatabase()
    db.add_relation("R", ("A", "B"), {(1, 1): 0.5, (2, 1): 0.4})
    plan = Project(Select(Scan("R"), (("A", 1),)), ())
    result = PartialLineageEvaluator(db).evaluate(plan)
    assert result.boolean_probability() == pytest.approx(0.5)
