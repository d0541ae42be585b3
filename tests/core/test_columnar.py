"""Unit tests for the columnar pL operators (Section 5.3).

Each kernel is checked on hand-built relations against the values the
paper's definitions give: the rows kept, their lineage nodes and
probabilities, and the network nodes allocated. The distribution-level
theorems live in ``tests/core/test_operators.py``; random databases and
plans are checked against the SQLite backend and possible worlds in
``tests/property``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import columnar
from repro.core.columnar import (
    ColumnarPLRelation,
    ValueInterner,
    condition,
    cset,
    independent_project,
    pl_join_raw,
    project,
    select_eq,
    select_where,
)
from repro.core.executor import PartialLineageEvaluator
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plrelation import PLRelation
from repro.db import ProbabilisticDatabase
from repro.dissociation import DissociationEvaluator
from repro.errors import ProbabilityError, SchemaError
from repro.query.parser import parse_query
from repro.sqlbackend import SQLitePartialLineageEvaluator


def assert_networks_equal(a: AndOrNetwork, b: AndOrNetwork, tol=1e-12):
    assert len(a) == len(b)
    for v in a.nodes():
        assert a.kind(v) == b.kind(v), v
        if a.kind(v) == NodeKind.LEAF:
            assert a.leaf_probability(v) == pytest.approx(
                b.leaf_probability(v), abs=tol
            )
        else:
            pa, pb = a.parents(v), b.parents(v)
            assert [p for p, _ in pa] == [p for p, _ in pb], v
            for (_, qa), (_, qb) in zip(pa, pb):
                assert qa == pytest.approx(qb, abs=tol)


def make_rel(rows, attrs=("A", "B"), name="R", leaves=0):
    """A columnar relation over a fresh network and interner.

    *leaves* pre-seeds the network with that many leaf nodes (ids
    ``1..leaves``) so rows may reference non-ε lineage.
    """
    net = AndOrNetwork()
    for _ in range(leaves):
        net.add_leaf(0.5)
    rel = PLRelation(attrs, net, name=name)
    for r, l, p in rows:
        rel.add(r, l, p)
    return columnar.from_plrelation(rel, ValueInterner())


def assert_items(rel, expected, tol=1e-12):
    """*rel* holds exactly the ``(row, lineage, probability)`` triples of
    *expected*, in that order."""
    got = list(rel.items())
    assert [r for r, _, _ in got] == [r for r, _, _ in expected]
    assert [l for _, l, _ in got] == [l for _, l, _ in expected]
    for (_, _, pg), (_, _, pw) in zip(got, expected):
        assert pg == pytest.approx(pw, abs=tol)


ROWS = [
    ((1, 10), EPSILON, 0.5),
    ((1, 20), EPSILON, 1.0),
    ((2, 10), EPSILON, 0.25),
    ((2, 30), EPSILON, 0.75),
]


# ----------------------------------------------------------------- interner
class TestValueInterner:
    def test_intern_is_idempotent(self):
        interner = ValueInterner()
        assert interner.intern("a") == interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.code_of("a") == 0
        assert interner.code_of("missing") is None
        assert len(interner) == 2

    def test_numeric_fast_path_roundtrips(self):
        # Code *values* may differ from loop order (the fast path interns
        # sorted uniques), but same value -> same code, and decoding
        # restores the column. No kernel depends on code magnitude.
        interner = ValueInterner()
        values = [3, 1, 2, 1, 3, 3]
        encoded = interner.encode_column(values)
        assert interner.decode_column(encoded) == values
        assert encoded[1] == encoded[3]
        assert encoded[0] == encoded[4] == encoded[5]
        assert len({encoded[0], encoded[1], encoded[2]}) == 3
        # A later scalar lookup agrees with the vectorized encoding.
        assert interner.code_of(2) == encoded[2]

    def test_string_fast_path_roundtrips(self):
        # Strings vectorize like numbers (np.unique over a fixed-width
        # array); code values follow sorted-unique order, but same value ->
        # same code and decoding restores the column.
        interner = ValueInterner()
        values = ["b", "a", "b", "c", "a"]
        encoded = interner.encode_column(values)
        assert interner.decode_column(encoded) == values
        assert encoded[0] == encoded[2]
        assert encoded[1] == encoded[4]
        assert len(set(encoded.tolist())) == 3
        assert interner.code_of("c") == encoded[3]

    def test_string_fast_path_interoperates_with_scalar_intern(self):
        interner = ValueInterner()
        interner.intern("m")
        encoded = interner.encode_column(["m", "n", "m"])
        assert encoded[0] == interner.code_of("m") == 0
        assert interner.decode_column(encoded) == ["m", "n", "m"]

    def test_mixed_types_are_not_coerced(self):
        # np.asarray would coerce [1, "1"] to strings, silently merging
        # distinct values; the interner must keep them apart.
        interner = ValueInterner()
        encoded = interner.encode_column([1, "1", 1])
        assert encoded.tolist() == [0, 1, 0]

    def test_empty_column(self):
        assert ValueInterner().encode_column([]).size == 0


# ---------------------------------------------------------------- bulk gates
class TestBulkNetworkAPI:
    def test_add_leaves_matches_scalar(self):
        a, b = AndOrNetwork(), AndOrNetwork()
        probs = [0.1, 0.5, 1.0]
        ids = a.add_leaves(np.array(probs))
        assert ids.tolist() == [b.add_leaf(p) for p in probs]
        assert_networks_equal(a, b)

    def test_add_leaves_validates_probabilities(self):
        with pytest.raises(ProbabilityError):
            AndOrNetwork().add_leaves(np.array([0.5, 1.5]))

    def test_add_gates_matches_scalar(self):
        a, b = AndOrNetwork(), AndOrNetwork()
        la = a.add_leaves(np.array([0.2, 0.3, 0.4]))
        lb = [b.add_leaf(p) for p in (0.2, 0.3, 0.4)]
        got = a.add_gates(
            NodeKind.OR,
            np.array([[la[0], la[1]], [la[1], la[2]]]),
            np.array([[1.0, 1.0], [0.5, 1.0]]),
        )
        want = [
            b.add_gate(NodeKind.OR, [(lb[0], 1.0), (lb[1], 1.0)]),
            b.add_gate(NodeKind.OR, [(lb[1], 0.5), (lb[2], 1.0)]),
        ]
        assert got.tolist() == want
        assert_networks_equal(a, b)

    def test_add_gates_memo_interoperates_with_add_gate(self):
        net = AndOrNetwork()
        l0, l1 = net.add_leaf(0.2), net.add_leaf(0.3)
        scalar = net.add_gate(NodeKind.AND, [(l0, 1.0), (l1, 1.0)])
        bulk = net.add_gates(
            NodeKind.AND, np.array([[l0, l1]]), np.ones((1, 2))
        )
        # Deterministic gates hash-cons across both APIs.
        assert bulk.tolist() == [scalar]

    def test_single_parent_deterministic_gate_collapses(self):
        net = AndOrNetwork()
        leaf = net.add_leaf(0.4)
        out = net.add_gates(
            NodeKind.AND, np.array([[leaf]]), np.array([[1.0]])
        )
        assert out.tolist() == [leaf]

    def test_add_gates_csr_offsets(self):
        a, b = AndOrNetwork(), AndOrNetwork()
        la = a.add_leaves(np.array([0.2, 0.3, 0.4]))
        lb = [b.add_leaf(p) for p in (0.2, 0.3, 0.4)]
        got = a.add_gates(
            NodeKind.OR,
            np.array([la[0], la[1], la[2], la[0]]),
            np.array([0.9, 0.8, 0.7, 0.6]),
            offsets=np.array([0, 3, 4]),
        )
        want = [
            b.add_gate(
                NodeKind.OR, [(lb[0], 0.9), (lb[1], 0.8), (lb[2], 0.7)]
            ),
            b.add_gate(NodeKind.OR, [(lb[0], 0.6)]),
        ]
        assert got.tolist() == want
        assert_networks_equal(a, b)

    def test_add_gates_rejects_bad_input(self):
        net = AndOrNetwork()
        leaf = net.add_leaf(0.5)
        with pytest.raises(ValueError):
            net.add_gates(NodeKind.LEAF, np.array([[leaf]]), np.ones((1, 1)))
        with pytest.raises(ValueError):
            net.add_gates(NodeKind.OR, np.array([[99]]), np.ones((1, 1)))
        with pytest.raises(ProbabilityError):
            net.add_gates(NodeKind.OR, np.array([[leaf]]), np.array([[2.0]]))
        with pytest.raises(ValueError):
            net.add_gates(
                NodeKind.OR,
                np.array([leaf, leaf]),
                np.ones(2),
                offsets=np.array([0, 1]),  # does not cover all parents
            )


# ----------------------------------------------------------------- operators
class TestColumnarOperators:
    def test_select_eq(self):
        assert_items(select_eq(make_rel(ROWS), {"A": 1}), ROWS[:2])

    def test_select_eq_unseen_value_is_empty(self):
        col_rel = make_rel(ROWS)
        assert len(select_eq(col_rel, {"A": 777})) == 0

    def test_select_eq_unknown_attribute(self):
        col_rel = make_rel(ROWS)
        with pytest.raises(SchemaError):
            select_eq(col_rel, {"Z": 1})

    def test_select_where_fallback(self):
        pred = lambda row: row[1] >= 20
        assert_items(
            select_where(make_rel(ROWS), pred), [ROWS[1], ROWS[3]]
        )

    def test_project_merges_and_deduplicates(self):
        rows = ROWS + [((3, 10), 5, 0.5), ((3, 40), 6, 0.5)]
        col_rel = make_rel(rows, leaves=6)
        net = col_rel.network
        out = project(col_rel, ["A"])
        # A=1: one (value, ε) group, 1-(1-.5)(1-1) = 1; A=2: 1-.75·.25;
        # A=3: two lineages, so one Or gate carries both members.
        gate = len(net) - 1
        assert_items(
            out,
            [((1,), EPSILON, 1.0), ((2,), EPSILON, 0.8125), ((3,), gate, 1.0)],
        )
        assert net.kind(gate) is NodeKind.OR
        assert net.parents(gate) == ((5, 0.5), (6, 0.5))

    def test_independent_project_groups_by_value_and_lineage(self):
        rows = ROWS + [((1, 30), 1, 0.5)]
        col_rel = make_rel(rows, leaves=1)
        got = independent_project(col_rel, ["A"])
        decoded = [
            tuple(col_rel.interner.decode_column(c)) for c in got.codes
        ]
        assert decoded == [(1,), (2,), (1,)]
        assert got.lineage.tolist() == [EPSILON, EPSILON, 1]
        assert got.probs.tolist() == pytest.approx([1.0, 0.8125, 0.5])
        assert len(col_rel.network) == 2  # no new nodes

    def test_deduplicate_empty(self):
        out = project(make_rel([]), ["A"])
        assert out.attributes == ("A",)
        assert len(out) == 0

    def test_condition_rows_and_mask(self):
        targets = [(1, 10), (2, 30)]
        by_rows, by_mask = make_rel(ROWS), make_rel(ROWS)
        records = {"rows": [], "mask": []}
        outs = {
            "rows": condition(
                by_rows, targets,
                lambda n, s, r: records["rows"].append((n, s, r)),
            ),
            "mask": condition(
                by_mask, np.array([True, False, False, True]),
                lambda n, s, r: records["mask"].append((n, s, r)),
            ),
        }
        for key, out in outs.items():
            # Each uncertain ε-row gets a fresh leaf, in row order.
            assert_items(out, [
                ((1, 10), 1, 1.0), ROWS[1], ROWS[2], ((2, 30), 2, 1.0),
            ])
            assert records[key] == [(1, "R", (1, 10)), (2, "R", (2, 30))]
            assert [out.network.leaf_probability(v) for v in (1, 2)] == [
                0.5, 0.75,
            ]

    def test_condition_absent_row_raises(self):
        col_rel = make_rel(ROWS)
        with pytest.raises(SchemaError):
            columnar.condition(col_rel, [(9, 9)])

    def test_cset(self):
        # Both sides must share one network and interner.
        net, interner = AndOrNetwork(), ValueInterner()
        lr = PLRelation(("A",), net, name="L")
        rr = PLRelation(("A", "B"), net, name="R")
        for r, p in [((1,), 0.5), ((2,), 1.0)]:
            lr.add(r, EPSILON, p)
        for r, _, p in ROWS:
            rr.add(r, EPSILON, p)
        lc = lr.to_columnar(interner)
        rc = rr.to_columnar(interner)
        # (1,) is uncertain and matches two S-rows; (2,) is deterministic.
        assert cset(lc, rc, ["A"]) == [(1,)]
        assert columnar.cset_mask(lc, rc, ["A"]).tolist() == [True, False]

    def test_pl_join_raw_requires_shared_network_and_interner(self):
        a = make_rel(ROWS)
        b = make_rel(ROWS)
        with pytest.raises(SchemaError):
            pl_join_raw(a, b, ["A"])
        c = ColumnarPLRelation(
            ("A", "B"),
            a.network,
            ValueInterner(),
            a.codes.copy(),
            a.lineage.copy(),
            a.probs.copy(),
        )
        with pytest.raises(SchemaError):
            pl_join_raw(a, c, ["A"])


# ----------------------------------------------------------- compiled predicates
class TestComparison:
    OPS_ON_B = {
        "==": lambda b: b == 10,
        "!=": lambda b: b != 10,
        "<": lambda b: b < 20,
        "<=": lambda b: b <= 20,
        ">": lambda b: b > 10,
        ">=": lambda b: b >= 20,
    }

    @pytest.mark.parametrize("op", sorted(OPS_ON_B))
    def test_all_ops_match_row_engine(self, op):
        """The compiled mask agrees with evaluating the same comparison
        row at a time (``select_where``'s callable path) and with Python's
        own operator on the values."""
        col_rel = make_rel(ROWS)
        value = 10 if op in ("==", "!=", ">") else 20
        cmp = columnar.Comparison("B", op, value)
        got = select_where(col_rel, cmp)
        index_of = col_rel.index_of
        want = select_where(col_rel, lambda row: cmp.matches(row, index_of))
        assert_items(got, list(want.items()))
        ref = self.OPS_ON_B[op]
        assert got.rows() == [r for r, _, _ in ROWS if ref(r[1])]

    def test_unseen_constant_equal_is_empty(self):
        cmp = columnar.Comparison("A", "==", 777)
        assert len(select_where(make_rel(ROWS), cmp)) == 0

    def test_unseen_constant_not_equal_keeps_all(self):
        cmp = columnar.Comparison("A", "!=", 777)
        assert_items(select_where(make_rel(ROWS), cmp), ROWS)

    def test_conjunction_of_comparisons(self):
        preds = [
            columnar.Comparison("A", "==", 2),
            columnar.Comparison("B", "<", 30),
        ]
        assert_items(select_where(make_rel(ROWS), preds), [ROWS[2]])

    def test_string_ordering(self):
        rows = [
            (("ant", "x"), EPSILON, 0.5),
            (("bee", "y"), EPSILON, 0.25),
            (("cat", "z"), EPSILON, 0.75),
        ]
        cmp = columnar.Comparison("A", "<=", "bee")
        assert_items(select_where(make_rel(rows), cmp), rows[:2])

    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            columnar.Comparison("A", "~", 1)

    def test_unknown_attribute_rejected(self):
        col_rel = make_rel(ROWS)
        with pytest.raises(SchemaError):
            select_where(col_rel, columnar.Comparison("Z", "==", 1))

    def test_matches_row_at_a_time(self):
        cmp = columnar.Comparison("A", ">=", 3)
        index_of = {"A": 0}.__getitem__
        assert cmp.matches((3, "x"), index_of)
        assert not cmp.matches((2, "x"), index_of)

    def test_mixed_list_falls_back_to_callable_error(self):
        # a list mixing Comparison with a plain callable is not a compiled
        # conjunction; it must be rejected rather than half-compiled
        col_rel = make_rel(ROWS)
        with pytest.raises(TypeError):
            select_where(col_rel, [columnar.Comparison("A", "==", 1), len])


# ----------------------------------------------------------------- round-trip
class TestConversions:
    def test_to_columnar_roundtrip(self):
        row_rel = make_rel(ROWS).to_rows()
        back = row_rel.to_columnar().to_rows()
        assert_items(row_rel.to_columnar(), list(back.items()))
        assert list(back.items()) == list(row_rel.items()) == ROWS

    def test_symbolic_helpers(self):
        rows = [((1, 10), EPSILON, 0.5), ((2, 20), 3, 1.0)]
        col_rel = make_rel(rows, leaves=3)
        assert col_rel.symbolic_rows() == [(2, 20)]
        assert not col_rel.is_purely_extensional()


# -------------------------------------------------------------------- engine
class TestEngineKnob:
    """The evaluator's columnar pipeline end to end: result shape, the
    base-encode cache, per-operator timings, and agreement with the SQLite
    backend."""

    def make_db(self):
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {("a1",): 0.5, ("a2",): 0.6})
        db.add_relation(
            "S",
            ("A", "B"),
            {
                ("a1", "b1"): 0.7,
                ("a1", "b2"): 0.8,
                ("a2", "b1"): 0.9,
                ("a2", "b2"): 1.0,
                ("a3", "b3"): 0.4,
            },
        )
        db.add_relation("T", ("B",), {("b1",): 1.0, ("b2",): 0.3})
        return db

    def test_engines_build_identical_networks(self):
        """On this instance the columnar kernels and the SQLite backend
        allocate the same nodes in the same order."""
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y), T(y)")
        res_c = PartialLineageEvaluator(db).evaluate_query(query)
        sql = SQLitePartialLineageEvaluator(db)
        res_s = sql.evaluate_query(query)
        sql.close()
        assert res_c.engine == "columnar" and res_s.engine == "sqlite"
        assert_networks_equal(res_s.network, res_c.network)
        assert [
            (s.operator, s.output_size, s.conditioned) for s in res_s.stats
        ] == [(s.operator, s.output_size, s.conditioned) for s in res_c.stats]
        assert [
            (o.source, o.row, o.node) for o in res_s.conditioned_tuples
        ] == [(o.source, o.row, o.node) for o in res_c.conditioned_tuples]
        ar, ac = (
            res_s.answer_probabilities(),
            res_c.answer_probabilities(),
        )
        assert set(ar) == set(ac)
        for k in ar:
            assert ac[k] == pytest.approx(ar[k], abs=1e-12)

    def test_columnar_result_relation_is_row_backed(self):
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y)")
        res = PartialLineageEvaluator(db).evaluate_query(query)
        assert isinstance(res.relation, PLRelation)

    def test_base_cache_reused_and_invalidated(self):
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y)")
        ev = PartialLineageEvaluator(db)
        first = ev.evaluate_query(query).answer_probabilities()
        cache = ev._scanner._cache
        entries = dict(cache)
        assert set(entries) == {"R", "S"}
        again = ev.evaluate_query(query).answer_probabilities()
        assert again == first
        # Reused, not re-encoded: the very same cache entries.
        assert all(cache[name] is entry for name, entry in entries.items())
        ev.invalidate_cache()
        assert not cache

    def test_reused_evaluators_see_in_place_mutations(self):
        """Warm evaluators of both folds must agree with fresh ones after a
        direct ``set_probability``, after a remove + add that keeps the
        relation's length, and after a transaction commit."""
        db = ProbabilisticDatabase()
        db.add_relation("R", ("A",), {(1,): 0.5})
        db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
        db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
        query = parse_query("q() :- R(x), S(x,y), T(y)")
        warm_pl = PartialLineageEvaluator(db)
        warm_bounds = DissociationEvaluator(db)

        def check() -> float:
            fresh = PartialLineageEvaluator(db).evaluate_query(query)
            expected = fresh.answer_probabilities()
            assert (
                warm_pl.evaluate_query(query).answer_probabilities()
                == expected
            )
            fresh_bounds = DissociationEvaluator(db).evaluate_query(query)
            bounds = warm_bounds.evaluate_query(query)
            assert list(bounds.bounds.items()) == list(
                fresh_bounds.bounds.items()
            )
            assert bounds.dissociated == fresh_bounds.dissociated
            return expected.get((), 0.0)

        assert check() == pytest.approx(0.375)
        db["R"].set_probability((1,), 0.9)
        assert check() == pytest.approx(0.675)
        db["S"].remove((1, 2))
        db["S"].add((1, 3), 0.5)  # same length, different contents
        assert check() == pytest.approx(0.45)
        with db.transaction() as txn:
            txn.set_probability("T", (1,), 0.5)
        assert check() == pytest.approx(0.225)
        # Each relation keeps one entry: re-encodings replace, not pile up.
        assert set(warm_pl._scanner._cache) == {"R", "S", "T"}

    def test_join_stats_record_wall_time(self):
        db = self.make_db()
        query = parse_query("q(x) :- R(x), S(x,y), T(y)")
        res = PartialLineageEvaluator(db).evaluate_query(query)
        assert all(s.seconds >= 0.0 for s in res.stats)
        assert any(s.seconds > 0.0 for s in res.stats)
