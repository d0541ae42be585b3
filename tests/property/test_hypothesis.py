"""Property-based tests (hypothesis) on the core data structures and
invariants of the paper."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.columnar import ValueInterner, condition, from_plrelation, project
from repro.core.executor import PartialLineageEvaluator
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.core.plrelation import PLRelation
from repro.db import ProbabilisticDatabase
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.exact import dnf_probability
from repro.lineage.readonce import read_once_probability
from repro.query.parser import parse_query

from tests.conftest import oracle_probability

probabilities = st.one_of(
    st.just(1.0), st.floats(min_value=0.05, max_value=0.95)
)


# --------------------------------------------------------------- strategies
@st.composite
def small_databases(draw) -> ProbabilisticDatabase:
    """R(A), S(A,B), T(B) over tiny domains with mixed determinism."""
    dom = range(draw(st.integers(min_value=1, max_value=3)))
    db = ProbabilisticDatabase()
    r = {
        (a,): draw(probabilities)
        for a in dom
        if draw(st.booleans())
    }
    s = {
        (a, b): draw(probabilities)
        for a in dom
        for b in dom
        if draw(st.booleans())
    }
    t = {
        (b,): draw(probabilities)
        for b in dom
        if draw(st.booleans())
    }
    db.add_relation("R", ("A",), r)
    db.add_relation("S", ("A", "B"), s)
    db.add_relation("T", ("B",), t)
    return db


@st.composite
def networks(draw) -> AndOrNetwork:
    net = AndOrNetwork()
    n_leaves = draw(st.integers(min_value=1, max_value=4))
    nodes = [net.add_leaf(draw(probabilities)) for _ in range(n_leaves)]
    n_gates = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_gates):
        k = draw(st.integers(min_value=1, max_value=min(3, len(nodes))))
        parents = [
            (nodes[i], draw(probabilities))
            for i in draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(nodes) - 1),
                    min_size=k,
                    max_size=k,
                    unique=True,
                )
            )
        ]
        kind = draw(st.sampled_from([NodeKind.AND, NodeKind.OR]))
        nodes.append(net.add_gate(kind, parents))
    return net


@st.composite
def pl_relations(draw, max_rows: int = 4) -> PLRelation:
    net = draw(networks())
    rel = PLRelation(("A", "B"), net)
    n = draw(st.integers(min_value=1, max_value=max_rows))
    candidates = [(a, b) for a in range(3) for b in range(2)]
    rows = draw(
        st.lists(st.sampled_from(candidates), min_size=n, max_size=n, unique=True)
    )
    node_ids = list(net.nodes())
    for row in rows:
        rel.add(
            row,
            draw(st.sampled_from(node_ids)),
            draw(probabilities),
        )
    return rel


# ----------------------------------------------------------------- networks
@given(networks())
@settings(max_examples=60, deadline=None)
def test_network_joint_distribution_normalised(net: AndOrNetwork):
    net.validate()
    assert net.brute_force_marginal({}) == pytest.approx(1.0)


@given(networks())
@settings(max_examples=40, deadline=None)
def test_exact_inference_matches_enumeration(net: AndOrNetwork):
    from repro.core.inference import compute_marginal

    for node in net.nodes():
        assert compute_marginal(net, node) == pytest.approx(
            net.brute_force_marginal({node: 1})
        )


# -------------------------------------------------------------- pl-relations
@given(pl_relations())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_plrelation_distribution_normalised(rel: PLRelation):
    assert math.isclose(sum(rel.distribution().values()), 1.0, abs_tol=1e-9)


@given(pl_relations())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_conditioning_preserves_distribution(rel: PLRelation):
    """Lemma 5.12, generalised to symbolic rows, on arbitrary pL-relations."""
    before = rel.distribution()
    conditioned = condition(
        from_plrelation(rel, ValueInterner()), rel.rows()
    ).to_rows()
    after = conditioned.distribution()
    for world in before:
        assert after[world] == pytest.approx(before[world], abs=1e-9)
    assert all(p == 1.0 for _, _, p in conditioned.items())


@given(pl_relations())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_projection_preserves_distribution(rel: PLRelation):
    """Theorem 5.10 on arbitrary pL-relations."""
    before = rel.distribution()
    projected = project(from_plrelation(rel, ValueInterner()), ("A",)).to_rows()
    expected: dict[frozenset, float] = {}
    for world, p in before.items():
        image = frozenset((r[0],) for r in world)
        expected[image] = expected.get(image, 0.0) + p
    actual = projected.distribution()
    for world in set(actual) | set(expected):
        assert actual.get(world, 0.0) == pytest.approx(
            expected.get(world, 0.0), abs=1e-9
        )


# ------------------------------------------------------------ whole pipeline
@given(small_databases())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_partial_lineage_equals_possible_worlds(db: ProbabilisticDatabase):
    """The headline theorem, property-based: for the #P-hard q_u, partial
    lineage evaluation equals the possible-worlds semantics on any instance."""
    q = parse_query("R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    assert result.boolean_probability() == pytest.approx(
        oracle_probability(q, db), abs=1e-9
    )


@given(small_databases())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_probabilities_always_in_unit_interval(db: ProbabilisticDatabase):
    q = parse_query("R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q)
    p = result.boolean_probability()
    assert -1e-12 <= p <= 1.0 + 1e-12
    result.network.validate()


# -------------------------------------------------------------------- DNFs
@st.composite
def dnfs(draw):
    n_vars = draw(st.integers(min_value=1, max_value=6))
    variables = [EventVar("V", (i,)) for i in range(n_vars)]
    n_clauses = draw(st.integers(min_value=1, max_value=6))
    clauses = [
        frozenset(
            draw(
                st.lists(
                    st.sampled_from(variables), min_size=1, max_size=3, unique=True
                )
            )
        )
        for _ in range(n_clauses)
    ]
    probs = {v: draw(probabilities) for v in variables}
    return DNF(clauses), probs


@given(dnfs())
@settings(max_examples=60, deadline=None)
def test_dpll_within_unit_interval_and_monotone(pair):
    f, probs = pair
    p = dnf_probability(f, probs)
    assert -1e-12 <= p <= 1.0 + 1e-12
    # adding a clause can only increase the probability (monotone DNF)
    extra = frozenset(list(f.variables())[:1])
    bigger = DNF(set(f.clauses) | {extra})
    assert dnf_probability(bigger, probs) >= p - 1e-12


@given(dnfs())
@settings(max_examples=60, deadline=None)
def test_readonce_agrees_with_dpll_when_it_applies(pair):
    f, probs = pair
    ro = read_once_probability(f, probs)
    if ro is not None:
        assert ro == pytest.approx(dnf_probability(f, probs))
