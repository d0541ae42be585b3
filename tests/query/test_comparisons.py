"""Comparison predicates: parsing, pushdown placement, engine agreement."""

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import Filter, Join, Project, Scan, left_deep_plan
from repro.db import ProbabilisticDatabase, brute_force_answer_probabilities
from repro.errors import QuerySemanticsError, QuerySyntaxError
from repro.lineage.dnf import answer_lineages
from repro.lineage.exact import dnf_probability
from repro.query.grounding import answers_in_world
from repro.query.parser import parse_query
from repro.query.syntax import ComparisonPredicate, Variable
from repro.sqlbackend import SQLitePartialLineageEvaluator

from tests.conftest import make_rst_database


class TestParsing:
    def test_body_comparisons_are_collected(self):
        q = parse_query("q(x) :- R(x,y), y < 10")
        assert len(q.atoms) == 1
        assert q.comparisons == (
            ComparisonPredicate(Variable("y"), "<", 10),
        )

    def test_equals_normalises(self):
        q = parse_query("q() :- R(x), x = 3")
        assert q.comparisons[0].op == "=="

    def test_all_operators_parse(self):
        for op in ("==", "!=", "<", "<=", ">", ">="):
            q = parse_query(f"q() :- R(x), x {op} 2")
            assert q.comparisons[0].op == op

    def test_variable_rhs_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("q() :- R(x), S(y), x < y")

    def test_unknown_operator_rejected(self):
        with pytest.raises((QuerySyntaxError, QuerySemanticsError)):
            ComparisonPredicate(Variable("x"), "<>", 1)


class TestPushdown:
    def test_filter_lands_on_the_binding_scan(self):
        q = parse_query("q(x) :- R(x), S(x,y), T(y), y < 5")
        plan = left_deep_plan(q, ["R", "S", "T"])

        def find_filters(node, below_join):
            if isinstance(node, Filter):
                yield node, below_join
                yield from find_filters(node.child, below_join)
            elif isinstance(node, Join):
                yield from find_filters(node.left, True)
                yield from find_filters(node.right, True)
            elif isinstance(node, (Project,)):
                yield from find_filters(node.child, below_join)

        filters = list(find_filters(plan, False))
        assert len(filters) == 1
        node, below_join = filters[0]
        assert below_join, "filter must sit below the joins"
        assert isinstance(node.child, Scan)
        assert node.child.relation == "S"  # first scan binding y
        assert node.predicates[0].attribute == "y"

    def test_head_variable_filter_lands_on_first_scan(self):
        q = parse_query("q(x) :- R(x), S(x,y), x >= 1")
        plan = left_deep_plan(q, ["R", "S"])
        # Walk to the deepest left branch: Filter directly over Scan(R).
        node = plan
        while not isinstance(node, Filter):
            node = getattr(node, "child", None) or node.left
        assert isinstance(node.child, Scan) and node.child.relation == "R"


class TestCorrectness:
    QUERIES = (
        ("q(x) :- R(x), S(x,y), T(y), y < 2", ["R", "S", "T"]),
        ("q(x) :- R(x), S(x,y), T(y), x != 0, y >= 1", ["R", "S", "T"]),
        ("q() :- R(x), S(x,y), T(y), y <= 0", ["R", "S", "T"]),
    )

    def oracle(self, query, db):
        return brute_force_answer_probabilities(
            db, lambda w: answers_in_world(query, w)
        )

    def full_lineage(self, query, db):
        """The intensional baseline: ground every answer's DNF, solve it."""
        dnfs, probs = answer_lineages(query, db)
        return {row: dnf_probability(f, probs) for row, f in dnfs.items()}

    def test_three_engines_match_the_oracle(self, rng):
        """Columnar pL kernels, the SQLite pL backend and full lineage."""
        for text, order in self.QUERIES:
            query = parse_query(text)
            for _ in range(8):
                db = make_rst_database(rng)
                expected = self.oracle(query, db)
                ev = SQLitePartialLineageEvaluator(db)
                sql = ev.evaluate_query(query, order).answer_probabilities()
                ev.close()
                for got in (
                    PartialLineageEvaluator(db).evaluate_query(
                        query, order
                    ).answer_probabilities(),
                    sql,
                    self.full_lineage(query, db),
                ):
                    assert set(got) == set(expected)
                    for row, p in expected.items():
                        assert got[row] == pytest.approx(p, abs=1e-9)

    def test_contradictory_filter_empties_the_answers(self):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 0.5, (2,): 0.5})
        q = parse_query("q(x) :- R(x), x > 2, x < 1")
        result = PartialLineageEvaluator(db).evaluate_query(q)
        assert result.answer_probabilities() == {}
