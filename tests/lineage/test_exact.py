"""Tests for the exact DNF solver: bucket elimination when narrow, DPLL
(the MayBMS proxy) beyond the width limit."""

import itertools
import random

import pytest

from repro.errors import InferenceError
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.exact import (
    ELIMINATION_WIDTH_LIMIT,
    DPLLStats,
    dnf_probability,
)
from repro.resilience import QueryBudget

from tests.conftest import WIDE_RST, rst_lineage


def brute_force_dnf(dnf: DNF, probs: dict[EventVar, float]) -> float:
    variables = sorted(dnf.variables())
    total = 0.0
    for values in itertools.product((False, True), repeat=len(variables)):
        world = dict(zip(variables, values))
        weight = 1.0
        for v, present in world.items():
            weight *= probs[v] if present else 1 - probs[v]
        if dnf.evaluate(world):
            total += weight
    return total


def random_dnf(rng: random.Random, n_vars: int, n_clauses: int):
    variables = [EventVar("R", (i,)) for i in range(n_vars)]
    clauses = []
    for _ in range(n_clauses):
        size = rng.randint(1, min(3, n_vars))
        clauses.append(frozenset(rng.sample(variables, size)))
    probs = {
        v: rng.choice([1.0, rng.uniform(0.05, 0.95)]) for v in variables
    }
    return DNF(clauses), probs


def test_constants():
    assert dnf_probability(DNF(), {}) == 0.0
    assert dnf_probability(DNF([frozenset()]), {}) == 1.0


def test_single_variable():
    x = EventVar("R", (1,))
    assert dnf_probability(DNF([{x}]), {x: 0.3}) == pytest.approx(0.3)


def test_independent_or():
    x, y = EventVar("R", (1,)), EventVar("R", (2,))
    f = DNF([{x}, {y}])
    assert dnf_probability(f, {x: 0.5, y: 0.5}) == pytest.approx(0.75)


def test_conjunction():
    x, y = EventVar("R", (1,)), EventVar("R", (2,))
    f = DNF([{x, y}])
    assert dnf_probability(f, {x: 0.5, y: 0.4}) == pytest.approx(0.2)


def test_shared_variable_requires_shannon():
    x, y, z = (EventVar("R", (i,)) for i in range(3))
    f = DNF([{x, y}, {x, z}])
    # Pr = p(x) (1 - (1-p(y))(1-p(z)))
    assert dnf_probability(f, {x: 0.5, y: 0.5, z: 0.5}) == pytest.approx(
        0.5 * 0.75
    )


def test_deterministic_variables_simplified():
    x, y = EventVar("R", (1,)), EventVar("R", (2,))
    f = DNF([{x, y}])
    assert dnf_probability(f, {x: 1.0, y: 0.4}) == pytest.approx(0.4)
    # a clause of only deterministic variables makes the formula true
    assert dnf_probability(DNF([{x}]), {x: 1.0}) == 1.0


def test_zero_probability_variables_drop_clauses():
    x, y = EventVar("R", (1,)), EventVar("R", (2,))
    f = DNF([{x}, {y}])
    assert dnf_probability(f, {x: 0.0, y: 0.4}) == pytest.approx(0.4)
    assert dnf_probability(DNF([{x}]), {x: 0.0}) == 0.0


def test_matches_brute_force_randomized():
    rng = random.Random(3)
    for _ in range(60):
        f, probs = random_dnf(rng, rng.randint(1, 8), rng.randint(1, 10))
        assert dnf_probability(f, probs) == pytest.approx(
            brute_force_dnf(f, probs)
        )


def test_stats_populated():
    x, y, z = (EventVar("R", (i,)) for i in range(3))
    f = DNF([{x, y}, {y, z}, {z, x}])
    probs = {x: 0.5, y: 0.5, z: 0.5}
    stats = DPLLStats()
    assert dnf_probability(f, probs, stats=stats) == pytest.approx(0.5)
    # a triangle is two variables wide: eliminated, no DPLL call
    assert (stats.engine, stats.calls) == ("lineage-ve", 0)
    assert (stats.eliminated, stats.width) == (3, 2)
    # capped below its width the same formula is branched on
    narrow = QueryBudget(max_width=1)
    assert dnf_probability(f, probs, stats=stats, budget=narrow) == (
        pytest.approx(0.5)
    )
    assert stats.engine == "dpll"
    assert stats.calls > 0 and stats.shannon_branches > 0
    assert (stats.eliminated, stats.width) == (0, 2)


def test_both_engines_agree_on_a_hard_shape():
    # width 9: eliminated by default, thousands of DPLL calls (despite the
    # memo) when the budget's max_width sends it to the recursion
    f, probs = rst_lineage(12, 0.4, seed=5)
    ve, dpll = DPLLStats(), DPLLStats()
    eliminated = dnf_probability(f, probs, stats=ve)
    branched = dnf_probability(
        f, probs, stats=dpll, budget=QueryBudget(max_width=8)
    )
    assert (ve.calls, ve.width) == (0, 9)
    assert dpll.calls > 5000 and dpll.eliminated == 0
    assert eliminated == pytest.approx(branched, abs=1e-12)


def test_budget_guard():
    # over the elimination limit, so the call cap is what ends the attempt
    f, probs = rst_lineage(*WIDE_RST)
    stats = DPLLStats()
    with pytest.raises(InferenceError, match="budget"):
        dnf_probability(f, probs, max_calls=50, stats=stats)
    # the raise happens on the first call past the cap ...
    assert stats.calls == 51
    # ... and the capped solve still reports the work it did
    assert stats.shannon_branches > 0
    assert stats.eliminated == 0 and stats.width > ELIMINATION_WIDTH_LIMIT


def test_capped_solve_reports_calls_in_its_span():
    from repro.obs import Tracer

    f, probs = rst_lineage(*WIDE_RST)
    with Tracer() as tracer:
        with pytest.raises(InferenceError):
            dnf_probability(f, probs, max_calls=50)
    (span,) = [s for s in tracer.roots if s.name == "dnf_probability"]
    assert span.counters["calls"] == 51
    assert span.attrs["path"] == "dpll"


def test_eliminated_solve_reports_engine_and_cost_in_its_span():
    from repro.obs import Tracer

    f, probs = rst_lineage(12, 0.4, seed=5)
    with Tracer() as tracer:
        dnf_probability(f, probs)
    (span,) = [s for s in tracer.roots if s.name == "dnf_probability"]
    assert (span.attrs["path"], span.attrs["width"]) == ("lineage-ve", 9)
    assert span.counters["calls"] == 0
    assert span.counters["eliminated"] == 24  # every R and T variable
    # calibration pair: predicted table entries beside measured seconds
    assert span.counters["predicted_cost"] >= 2 ** (9 + 1)
    assert 0 < span.counters["eliminate_seconds"] <= span.wall


def test_hard_bipartite_still_exact_with_budget():
    xs = [EventVar("X", (i,)) for i in range(5)]
    ys = [EventVar("Y", (j,)) for j in range(5)]
    f = DNF([frozenset({x, y}) for x in xs for y in ys])
    probs = {v: 0.5 for v in xs + ys}
    assert dnf_probability(f, probs) == pytest.approx(brute_force_dnf(f, probs))
