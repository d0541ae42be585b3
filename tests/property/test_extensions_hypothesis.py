"""Property-based tests for the extension modules (OBDD, interval bounds,
tree propagation, optimiser, what-if)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.executor import PartialLineageEvaluator
from repro.core.network import AndOrNetwork, NodeKind
from repro.core.optimizer import connected_prefix_orders
from repro.core.treeprop import is_tree_factorable, tree_marginals
from repro.core.whatif import WhatIfAnalysis
from repro.lineage.approx_bounds import approximate_probability
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.exact import dnf_probability
from repro.lineage.obdd import build_obdd
from repro.query.parser import parse_query

from tests.property.test_hypothesis import dnfs, small_databases

probabilities = st.one_of(
    st.just(1.0), st.floats(min_value=0.05, max_value=0.95)
)


@given(dnfs())
@settings(max_examples=60, deadline=None)
def test_obdd_equals_dpll(pair):
    f, probs = pair
    obdd = build_obdd(f)
    assert obdd.probability(probs) == pytest.approx(dnf_probability(f, probs))


@given(dnfs())
@settings(max_examples=60, deadline=None)
def test_obdd_semantics_on_random_worlds(pair):
    f, probs = pair
    obdd = build_obdd(f)
    variables = sorted(f.variables())
    # spot-check a few deterministic worlds derived from the formula
    for mask in range(min(8, 1 << len(variables))):
        world = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
        assert obdd.evaluate(world) == f.evaluate(world)


@given(dnfs(), st.sampled_from([0.5, 0.1, 0.01]),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_interval_bounds_always_sound(pair, epsilon, max_calls):
    f, probs = pair
    exact = dnf_probability(f, probs)
    iv = approximate_probability(f, probs, epsilon=epsilon, max_calls=max_calls)
    assert iv.lower <= iv.upper
    assert iv.contains(exact)


@st.composite
def forest_networks(draw) -> AndOrNetwork:
    """Networks where every node feeds at most one gate (tree-factorable)."""
    net = AndOrNetwork()
    available = [
        net.add_leaf(draw(probabilities))
        for _ in range(draw(st.integers(min_value=2, max_value=6)))
    ]
    while len(available) > 1 and draw(st.booleans()):
        k = draw(st.integers(min_value=2, max_value=min(3, len(available))))
        parents = [available.pop() for _ in range(k)]
        gate = net.add_gate(
            draw(st.sampled_from([NodeKind.AND, NodeKind.OR])),
            [(w, draw(probabilities)) for w in parents],
        )
        available.append(gate)
    return net


@given(forest_networks())
@settings(max_examples=40, deadline=None)
def test_tree_propagation_exact_on_forests(net):
    assert is_tree_factorable(net)
    out = tree_marginals(net)
    for node in net.nodes():
        assert out[node] == pytest.approx(net.brute_force_marginal({node: 1}))


@given(small_databases())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_connected_order_gives_same_answer(db):
    q = parse_query("R(x), S(x,y), T(y)")
    values = []
    for order in connected_prefix_orders(q):
        result = PartialLineageEvaluator(db).evaluate_query(q, list(order))
        values.append(result.boolean_probability())
    assert values == pytest.approx([values[0]] * len(values))


@given(small_databases(), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_whatif_override_consistency(db, new_p):
    """Setting an offending tuple's probability via what-if must equal the
    compiled base probability when new_p equals the original, and must be
    monotone in new_p (answers are monotone in tuple probabilities)."""
    q = parse_query("R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    if not result.conditioned_tuples or not len(result.relation):
        return
    analysis = WhatIfAnalysis(result)
    off = result.conditioned_tuples[0]
    base = analysis.probability(())
    lower = analysis.probability((), {off: 0.0})
    upper = analysis.probability((), {off: 1.0})
    assert lower - 1e-9 <= base <= upper + 1e-9
    mid = analysis.probability((), {off: new_p})
    assert lower - 1e-9 <= mid <= upper + 1e-9
