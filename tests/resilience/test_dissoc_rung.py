"""The dissociation rung and adaptive exact-rung budget slices."""

import random
from types import SimpleNamespace

import pytest

from repro.core.inference import compute_marginals
from repro.core.network import AndOrNetwork, NodeKind
from repro.resilience.budget import QueryBudget
from repro.resilience.execute import exact_fractions
from repro.resilience.ladder import (
    LADDER_RUNGS,
    resilient_component_marginals,
)

from tests.resilience.test_ladder import NO_EXACT, entangled_component


def tree_component(rng: random.Random):
    """A shared-nothing component: dissociation bounds are exact on it."""
    net = AndOrNetwork()
    leaves = [net.add_leaf(rng.uniform(0.2, 0.8)) for _ in range(4)]
    a = net.add_gate(NodeKind.AND, [(leaves[0], 1.0), (leaves[1], 1.0)])
    b = net.add_gate(NodeKind.AND, [(leaves[2], 1.0), (leaves[3], 1.0)])
    root = net.add_gate(NodeKind.OR, [(a, 1.0), (b, 1.0)])
    return net, root


class TestDissociationRung:
    def test_rung_order_lists_dissociation_second(self):
        assert LADDER_RUNGS.index("dissociation") == 1
        assert LADDER_RUNGS.index("exact") == 0
        assert LADDER_RUNGS.index("obdd") == 2

    def test_tree_component_wins_exactly_at_zero_deadline(self):
        # Exact inference has no time at all, but the dissociation fold is
        # width 0 on a shared-nothing component — an exact answer for free.
        net, root = tree_component(random.Random(21))
        out = resilient_component_marginals(
            net, [root], budget=QueryBudget(deadline_seconds=0.0)
        )
        oracle = compute_marginals(net, [root])[root]
        assert out[root].method == "dissociation"
        assert out[root].exact and out[root].degraded
        assert out[root].midpoint == pytest.approx(oracle, abs=1e-12)
        rungs = [(s.rung, s.outcome) for s in out[root].steps]
        assert ("dissociation", "ok") in rungs

    def test_wide_epsilon_accepts_inexact_dissociation(self):
        net, root = entangled_component(random.Random(22))
        out = resilient_component_marginals(
            net, [root],
            budget=QueryBudget(**NO_EXACT, approx_epsilon=1.0),
            narrow=False,
        )
        oracle = compute_marginals(net, [root])[root]
        assert out[root].method == "dissociation"
        assert not out[root].exact
        assert out[root].width > 0.0
        assert out[root].lower - 1e-9 <= oracle <= out[root].upper + 1e-9

    def test_prior_bounds_later_rungs(self):
        # When dissociation is too wide to win, its enclosure still caps
        # whatever a later rung returns (intersection soundness).
        net, root = entangled_component(random.Random(23))
        dissoc = resilient_component_marginals(
            net, [root],
            budget=QueryBudget(**NO_EXACT, approx_epsilon=1.0),
            narrow=False,
        )[root]
        degraded = resilient_component_marginals(
            net, [root],
            budget=QueryBudget(
                **NO_EXACT, obdd_max_nodes=1,
                approx_max_calls=1, max_samples=500,
            ),
            narrow=False,
        )[root]
        oracle = compute_marginals(net, [root])[root]
        assert degraded.lower >= dissoc.lower - 1e-12
        assert degraded.upper <= dissoc.upper + 1e-12
        assert degraded.lower - 1e-9 <= oracle <= degraded.upper + 1e-9
        rungs = [s.rung for s in degraded.steps]
        assert "dissociation" in rungs

    def test_successful_exact_run_records_no_dissociation(self):
        net, root = entangled_component(random.Random(24))
        out = resilient_component_marginals(net, [root])
        assert [s.rung for s in out[root].steps] == ["exact"]


class TestExactSkip:
    def test_hopeless_estimate_skips_rung_one(self):
        net, root = entangled_component(random.Random(25))
        out = resilient_component_marginals(
            net, [root],
            budget=QueryBudget(deadline_seconds=0.001),
            est_cost=1e15,
        )
        first = out[root].steps[0]
        assert first.rung == "exact" and first.outcome == "skipped"

    def test_feasible_estimate_still_tries_exact(self):
        net, root = entangled_component(random.Random(26))
        out = resilient_component_marginals(
            net, [root], budget=QueryBudget(deadline_seconds=30.0),
            est_cost=10.0,
        )
        assert out[root].method == "exact"
        assert [s.rung for s in out[root].steps] == ["exact"]


class TestExactFractions:
    def work(self, cost):
        return SimpleNamespace(cost=cost)

    def test_single_component_keeps_the_default_split(self):
        assert exact_fractions([self.work(100.0)]) == [0.5]

    def test_zero_estimates_keep_the_default_split(self):
        assert exact_fractions([self.work(0.0), self.work(0.0)]) == [0.5, 0.5]

    def test_dominant_component_gets_the_smallest_slice(self):
        fractions = exact_fractions(
            [self.work(1.0), self.work(1.0), self.work(98.0)]
        )
        assert fractions[2] == min(fractions)
        assert all(0.1 <= f <= 0.9 for f in fractions)

    def test_tiny_components_keep_generous_slices(self):
        fractions = exact_fractions([self.work(1.0)] * 100)
        assert all(f == pytest.approx(0.9 * 0.99) for f in fractions)
