"""The block sampler against the exact DPLL answer.

Estimates must land near :func:`dnf_probability` on seeded small DNFs,
reproduce given a seed, and not depend on how the samples are batched.
"""

import random

import numpy as np
import pytest

from repro.lineage.dnf import DNF, EventVar
from repro.lineage.exact import dnf_probability
from repro.lineage.sampling import (
    WorldLayout,
    karp_luby,
    monte_carlo_answers,
    naive_monte_carlo,
)


def v(i: int) -> EventVar:
    return EventVar("R", (i,))


@pytest.fixture
def triangle():
    f = DNF([{v(1), v(2)}, {v(2), v(3)}, {v(3), v(1)}])
    probs = {v(i): 0.5 for i in (1, 2, 3)}
    return f, probs, dnf_probability(f, probs)


@pytest.mark.parametrize("estimator", [naive_monte_carlo, karp_luby])
def test_estimators_match_exact_on_random_dnfs(estimator):
    rng = random.Random(23)
    for _ in range(4):
        variables = [v(i) for i in range(6)]
        clauses = [
            frozenset(rng.sample(variables, rng.randint(1, 3)))
            for _ in range(5)
        ]
        f = DNF(clauses)
        probs = {x: rng.uniform(0.1, 0.9) for x in variables}
        exact = dnf_probability(f, probs)
        est = estimator(f, probs, 30000, rng)
        assert est == pytest.approx(exact, abs=0.03)


def test_vectorized_reproducible_with_seed(triangle):
    f, probs, _ = triangle
    a = karp_luby(f, probs, 5000, random.Random(42))
    b = karp_luby(f, probs, 5000, random.Random(42))
    assert a == b


def test_vectorized_accepts_numpy_generator(triangle):
    f, probs, exact = triangle
    est = karp_luby(f, probs, 40000, np.random.default_rng(9))
    assert est == pytest.approx(exact, abs=0.02)


def test_vectorized_batching_splits_do_not_change_statistics(triangle):
    f, probs, exact = triangle
    est = naive_monte_carlo(f, probs, 30001, random.Random(4),
                            batch_size=1000)
    assert est == pytest.approx(exact, abs=0.02)


def test_karp_luby_vectorized_small_probability():
    f = DNF([{v(1), v(2)}])
    probs = {v(1): 0.01, v(2): 0.01}
    est = karp_luby(f, probs, 20000, random.Random(3))
    assert est == pytest.approx(1e-4, rel=0.15)


def test_vectorized_constants_and_validation():
    assert karp_luby(DNF([frozenset()]), {}, 10) == 1.0
    assert karp_luby(DNF(), {}, 10) == 0.0
    assert naive_monte_carlo(DNF([frozenset()]), {}, 10) == 1.0
    assert monte_carlo_answers({}, {}, 10) == {}
    with pytest.raises(ValueError):
        naive_monte_carlo(DNF([{v(1)}]), {v(1): 0.5}, 10, batch_size=0)
    with pytest.raises(ValueError):
        monte_carlo_answers({(): DNF([{v(1)}])}, {v(1): 0.5}, 0)


def test_deterministic_variables_always_hold():
    """Probability-1 variables must be true in every sampled world."""
    f = DNF([{v(1), v(2)}])
    probs = {v(1): 1.0, v(2): 0.5}
    est = naive_monte_carlo(f, probs, 30000, random.Random(8))
    assert est == pytest.approx(0.5, abs=0.02)


def test_singleton_blocks_draw_like_independent_variables():
    """Without block keys every variable is its own block, and the block draw
    is the independent draw ``u < p`` on the same stream, bit for bit."""
    p = np.array([0.1, 0.5, 1.0, 0.3, 0.9])
    layout = WorldLayout.of(p)
    assert layout.follower.size == 0 and (layout.hi == p).all()
    worlds = layout.draw(np.random.default_rng(3), 200)
    u = np.random.default_rng(3).random((200, p.size))
    assert (worlds == (u < p)).all()
    keyed = WorldLayout.of(p, [v(i) for i in range(p.size)])
    assert (keyed.draw(np.random.default_rng(3), 200) == worlds).all()
