"""Tests for interval-based approximate confidence computation [19]."""

import random

import pytest

from repro.enclosure import Enclosure
from repro.lineage.approx_bounds import approximate_probability
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.exact import dnf_probability

from tests.lineage.test_exact import random_dnf


def v(i: int) -> EventVar:
    return EventVar("R", (i,))


def test_interval_validation():
    iv = Enclosure(0.2, 0.4, "bounds", False)
    with pytest.raises(ValueError):
        Enclosure(0.5, 0.4, "bounds", False)
    with pytest.raises(ValueError):
        Enclosure(-0.2, 0.4, "bounds", False)
    assert iv.width == pytest.approx(0.2)
    assert iv.midpoint == pytest.approx(0.3)
    assert iv.contains(0.3)
    assert not iv.contains(0.5)


def test_constants():
    assert approximate_probability(DNF(), {}).upper == 0.0
    assert approximate_probability(DNF([frozenset()]), {}).lower == 1.0


def test_triangle_converges():
    f = DNF([{v(1), v(2)}, {v(2), v(3)}, {v(3), v(1)}])
    probs = {v(i): 0.5 for i in (1, 2, 3)}
    iv = approximate_probability(f, probs, epsilon=1e-4)
    assert iv.width <= 1e-4
    assert iv.contains(dnf_probability(f, probs))


def test_epsilon_validation():
    with pytest.raises(ValueError):
        approximate_probability(DNF([{v(1)}]), {v(1): 0.5}, epsilon=0.0)


def test_soundness_randomized():
    """The interval must always contain the exact answer, at every epsilon
    and even with a tiny expansion budget."""
    rng = random.Random(21)
    for _ in range(40):
        f, probs = random_dnf(rng, rng.randint(1, 8), rng.randint(1, 10))
        exact = dnf_probability(f, probs)
        for epsilon in (0.5, 0.05, 0.005):
            iv = approximate_probability(f, probs, epsilon=epsilon)
            assert iv.contains(exact), (epsilon, f)
            assert iv.width <= epsilon + 1e-9
        truncated = approximate_probability(f, probs, epsilon=1e-9, max_calls=3)
        assert truncated.contains(exact)


def test_width_shrinks_with_epsilon():
    # a formula whose frontier bounds are loose
    xs = [v(i) for i in range(8)]
    clauses = [frozenset({xs[i], xs[(i + 1) % 8]}) for i in range(8)]
    f = DNF(clauses)
    probs = {x: 0.5 for x in xs}
    loose = approximate_probability(f, probs, epsilon=0.5)
    tight = approximate_probability(f, probs, epsilon=0.01)
    assert tight.width <= loose.width
    assert tight.width <= 0.01
    assert tight.contains(dnf_probability(f, probs))


def test_cheap_bounds_when_budget_exhausted():
    """With max_calls=1 we get (at worst) the frontier bounds, still sound."""
    xs = [v(i) for i in range(6)]
    f = DNF([frozenset({xs[i], xs[(i + 1) % 6]}) for i in range(6)])
    probs = {x: 0.3 for x in xs}
    iv = approximate_probability(f, probs, epsilon=1e-6, max_calls=1)
    exact = dnf_probability(f, probs)
    assert iv.contains(exact)
    assert iv.lower >= 0.3 * 0.3 - 1e-9  # at least the best single clause


def test_component_combination_orientation_regression():
    """Regression: with truncated (wide) child intervals across several
    components, the combination 1 - prod(1 - I) must keep low <= high and
    stay sound (the bounds were once swapped)."""
    t1 = [v(i) for i in (1, 2, 3)]
    t2 = [v(i) for i in (4, 5, 6)]
    f = DNF(
        [{t1[0], t1[1]}, {t1[1], t1[2]}, {t1[2], t1[0]},
         {t2[0], t2[1]}, {t2[1], t2[2]}, {t2[2], t2[0]}]
    )
    probs = {x: 0.5 for x in t1 + t2}
    exact = dnf_probability(f, probs)
    for max_calls in (1, 2, 3, 5, 100):
        iv = approximate_probability(f, probs, epsilon=1e-9, max_calls=max_calls)
        assert iv.lower <= iv.upper
        assert iv.contains(exact), max_calls


def test_expired_budget_truncates_instead_of_raising():
    """A blown deadline truncates the expansion (sound frontier bounds
    below the cut) rather than raising — the ladder's bounds rung must
    always come back with an interval."""
    from repro.resilience.budget import QueryBudget

    xs = [v(i) for i in range(12)]
    f = DNF([frozenset({xs[i], xs[(i + 1) % 12]}) for i in range(12)])
    probs = {x: 0.4 for x in xs}
    budget = QueryBudget(deadline_seconds=0.0).start()
    iv = approximate_probability(
        f, probs, epsilon=1e-9, max_calls=10**9, budget=budget
    )
    assert iv.lower <= iv.upper
    assert iv.contains(dnf_probability(f, probs))
    # same instance, no deadline: the interval tightens to epsilon
    tight = approximate_probability(f, probs, epsilon=1e-9, max_calls=10**9)
    assert tight.width <= 1e-9 < 1.0
    assert iv.width >= tight.width


def test_unlimited_budget_does_not_truncate():
    from repro.resilience.budget import QueryBudget

    xs = [v(i) for i in range(6)]
    f = DNF([frozenset({xs[i], xs[(i + 1) % 6]}) for i in range(6)])
    probs = {x: 0.3 for x in xs}
    iv = approximate_probability(
        f, probs, epsilon=1e-9, budget=QueryBudget()
    )
    assert iv.width <= 1e-9
    assert iv.contains(dnf_probability(f, probs))
