"""The degradation ladder: rung order, sound enclosures, provenance."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inference import compute_marginals
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.enclosure import Enclosure
from repro.resilience.budget import QueryBudget
from repro.resilience.ladder import (
    LADDER_RUNGS,
    DegradationStep,
    resilient_component_marginals,
)

from tests.perf.test_parallel import multi_component_network


def entangled_component(rng: random.Random):
    """One component whose gates share leaves pairwise (defeats tree
    factoring; its lineage is a triangle of clauses, two variables wide)."""
    net = AndOrNetwork()
    leaves = [net.add_leaf(rng.uniform(0.2, 0.8)) for _ in range(4)]
    a = net.add_gate(NodeKind.AND, [(leaves[0], 1.0), (leaves[1], 1.0)])
    b = net.add_gate(NodeKind.AND, [(leaves[0], 1.0), (leaves[2], 1.0)])
    c = net.add_gate(NodeKind.AND, [(leaves[1], 1.0), (leaves[2], 1.0)])
    root = net.add_gate(
        NodeKind.OR, [(a, 1.0), (b, 1.0), (c, 1.0), (leaves[3], 0.5)]
    )
    return net, root


#: These tests are about rung order, not width: ``max_width=0`` sends the
#: (two-wide) lineage of :func:`entangled_component` past both elimination
#: engines to DPLL, and zero calls kills that instantly.
NO_EXACT = dict(max_width=0, dpll_max_calls=0)


class TestExactRung:
    def test_easy_component_stays_exact(self):
        net, root = entangled_component(random.Random(1))
        out = resilient_component_marginals(net, [root])
        oracle = compute_marginals(net, [root])[root]
        assert out[root].exact and not out[root].degraded
        assert out[root].method == "exact"
        assert out[root].width == 0.0
        assert out[root].midpoint == pytest.approx(oracle, abs=1e-12)
        assert [s.rung for s in out[root].steps] == ["exact"]
        assert out[root].steps[0].outcome == "ok"

    def test_epsilon_is_always_exact(self):
        net, root = entangled_component(random.Random(2))
        out = resilient_component_marginals(
            net, [EPSILON, root], budget=QueryBudget(deadline_seconds=0.0)
        )
        assert out[EPSILON].exact
        assert out[EPSILON].lower == out[EPSILON].upper == 1.0


class TestFallbackRungs:
    def test_dpll_budget_falls_back_to_obdd(self):
        net, root = entangled_component(random.Random(3))
        out = resilient_component_marginals(
            net, [root], budget=QueryBudget(**NO_EXACT), narrow=False
        )
        oracle = compute_marginals(net, [root])[root]
        assert out[root].method == "obdd"
        assert out[root].exact  # OBDD is still an exact rung
        assert out[root].degraded  # ... but rung 1 did not win
        assert out[root].midpoint == pytest.approx(oracle, abs=1e-12)
        rungs = [(s.rung, s.outcome) for s in out[root].steps]
        assert ("exact", "failed") in rungs and ("obdd", "ok") in rungs

    def test_sliced_entry_points_honour_max_width(self):
        # both fan-outs probe each component under the budget's width cap,
        # so they take the rung the component solve takes on its own
        from repro.obs.trace import Tracer
        from repro.perf.parallel import parallel_marginals
        from repro.resilience.execute import resilient_marginals

        net, root = entangled_component(random.Random(3))
        alone = resilient_component_marginals(
            net, [root], budget=QueryBudget(**NO_EXACT)
        )
        sliced = resilient_marginals(
            net, [root], budget=QueryBudget(**NO_EXACT)
        )
        assert alone[root].method == sliced[root].method == "obdd"
        with Tracer() as tracer:
            parallel_marginals(net, [root], budget=QueryBudget(max_width=0))
        (solve,) = tracer.roots[0].find("solve_slice")
        assert solve.attrs["path"] == "dpll"

    def test_obdd_budget_falls_back_to_bounds(self):
        net, root = entangled_component(random.Random(4))
        out = resilient_component_marginals(
            net, [root],
            budget=QueryBudget(**NO_EXACT, obdd_max_nodes=1),
            narrow=False,
        )
        oracle = compute_marginals(net, [root])[root]
        assert out[root].method == "bounds"
        assert not out[root].exact
        assert out[root].lower - 1e-9 <= oracle <= out[root].upper + 1e-9
        rungs = [(s.rung, s.outcome) for s in out[root].steps]
        assert ("obdd", "failed") in rungs and ("bounds", "ok") in rungs

    def test_loose_bounds_fall_back_to_sampling(self):
        # a starved bounds rung leaves a wide interval; sampling tightens it
        # and the intersection with the sound prior keeps it sound.
        net, root = entangled_component(random.Random(5))
        out = resilient_component_marginals(
            net, [root],
            budget=QueryBudget(
                **NO_EXACT, obdd_max_nodes=1,
                approx_max_calls=1, max_samples=2_000,
            ),
            narrow=False,
        )
        oracle = compute_marginals(net, [root])[root]
        assert out[root].method == "karp-luby"
        assert out[root].method in LADDER_RUNGS
        assert not out[root].exact
        assert out[root].lower - 1e-9 <= oracle <= out[root].upper + 1e-9

    def test_zero_deadline_still_returns_sound_enclosures(self):
        net, roots = multi_component_network(random.Random(6), 4)
        out = resilient_component_marginals(
            net, roots, budget=QueryBudget(deadline_seconds=0.0)
        )
        oracle = compute_marginals(net, roots)
        for r in roots:
            assert out[r].degraded
            assert out[r].method in LADDER_RUNGS
            assert out[r].lower - 1e-9 <= oracle[r] <= out[r].upper + 1e-9

    def test_sampling_is_deterministic_under_a_seed(self):
        net, root = entangled_component(random.Random(7))
        budget = QueryBudget(
            **NO_EXACT, obdd_max_nodes=1,
            approx_max_calls=1, max_samples=512,
        )
        runs = [
            resilient_component_marginals(
                net, [root], budget=budget,
                rng=random.Random("chaos"), narrow=False,
            )[root]
            for _ in range(2)
        ]
        assert runs[0].method == runs[1].method == "karp-luby"
        assert runs[0].lower == runs[1].lower
        assert runs[0].upper == runs[1].upper


class TestAnswerResult:
    """An answer's enclosure is its lineage node's, scaled by the row's
    own probability."""

    def test_from_marginal_scales_the_enclosure(self):
        steps = (DegradationStep("exact", "failed", "", 0.0),)
        outcome = Enclosure(0.2, 0.4, "bounds", False, steps)
        answer = outcome.scaled(0.5)
        assert answer.lower == pytest.approx(0.1)
        assert answer.upper == pytest.approx(0.2)
        assert answer.midpoint == pytest.approx(0.15)
        assert answer.width == pytest.approx(0.1)
        assert answer.degraded and not answer.exact
        assert answer.contains(0.12) and not answer.contains(0.3)
        assert answer.steps is steps
        d = answer.as_dict()
        assert d["method"] == "bounds" and d["probability"] == answer.midpoint

    def test_exact_marginal_gives_zero_width_answer(self):
        answer = Enclosure(0.25, 0.25, "exact", True).scaled(1.0)
        assert answer.exact and answer.width == 0.0
        assert answer.midpoint == 0.25


# ---------------------------------------------------------------- property
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_degraded_enclosures_contain_the_exact_oracle(seed):
    """The satellite property: whatever rung wins under a blown deadline,
    the ``(lower, upper)`` interval contains the exact serial-oracle
    probability of every target."""
    rng = random.Random(seed)
    net, roots = multi_component_network(rng, rng.randint(1, 4))
    oracle = compute_marginals(net, roots)
    out = resilient_component_marginals(
        net, roots, budget=QueryBudget(deadline_seconds=0.0),
        rng=random.Random(seed),
    )
    for r in roots:
        assert out[r].lower - 1e-9 <= oracle[r] <= out[r].upper + 1e-9
        assert out[r].method in LADDER_RUNGS
        assert out[r].steps, "degraded outcomes must carry provenance"
