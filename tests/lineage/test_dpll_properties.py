"""Property tests for the bitmask DPLL core: the exact solver, the interval
approximator and the trace compiler share one set of mask primitives, so they
are checked against each other and against possible-worlds enumeration.

The exact solver eliminates narrow formulas without a DPLL call, and the
formulas drawn here are narrow; every property of the recursion is therefore
checked under ``DPLL_ONLY`` (a width limit below any width) as well as under
the default limit (``tests/lineage/test_elimination_properties.py`` has the
properties of the elimination itself)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.compile import compile_dnf
from repro.errors import DPLLBudgetError
from repro.lineage.approx_bounds import approximate_probability
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.exact import DPLLStats, dnf_probability
from repro.perf import SubformulaCache
from repro.resilience import QueryBudget

#: Every formula with a shared variable is branched on; ``None`` leaves the
#: choice to the formula's width.
DPLL_ONLY = QueryBudget(max_width=-1)
either_engine = st.sampled_from([None, DPLL_ONLY])

probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.01, max_value=0.99)
)


def var(i: int, relation: str = "V") -> EventVar:
    return EventVar(relation, (i,))


@st.composite
def formulas(draw, max_components: int = 3, wide: bool = False):
    """``(clauses, probs)``: a few variable-disjoint components of up to four
    variables each, with p in {0, 1} (clauses vanish, shrink, collide into
    duplicates) and subsumed clauses left in. *wide* adds one more component
    of two long conjunctions sharing most variables, which pushes the
    variable numbering past one or two 64-bit words."""
    clauses: list[frozenset[EventVar]] = []
    probs: dict[EventVar, float] = {}
    base = 0
    for _ in range(draw(st.integers(1, max_components))):
        size = draw(st.integers(1, 4))
        ids = list(range(base, base + size))
        base += size
        for _ in range(draw(st.integers(1, 5))):
            clause = draw(st.sets(st.sampled_from(ids), min_size=1))
            clauses.append(frozenset(var(i) for i in clause))
        for i in ids:
            probs[var(i)] = draw(probabilities)
    if wide:
        width = draw(st.sampled_from([70, 140]))
        ids = list(range(base, base + width))
        shared = frozenset(var(i) for i in ids[2:])
        clauses += [shared | {var(ids[0])}, shared | {var(ids[1])}]
        for i in ids:
            probs[var(i)] = draw(st.sampled_from([0.5, 0.999, 1.0]))
    return clauses, probs


def enumerate_worlds(clauses, probs) -> float:
    """Pr(some clause holds) by summing over all assignments."""
    variables = sorted({v for c in clauses for v in c})
    bit = {v: 1 << i for i, v in enumerate(variables)}
    masks = [sum(bit[v] for v in c) for c in clauses]
    total = 0.0
    for world in range(1 << len(variables)):
        if any(m & world == m for m in masks):
            weight = 1.0
            for v in variables:
                weight *= probs[v] if world & bit[v] else 1.0 - probs[v]
            total += weight
    return total


def renamed(clauses, probs, relation: str = "W"):
    """The same formula over fresh variables, ids (hence order) kept."""
    def to(v):
        return var(v.row[0], relation)

    return (
        [frozenset(to(v) for v in c) for c in clauses],
        {to(v): p for v, p in probs.items()},
    )


@settings(max_examples=150, deadline=None)
@given(formulas(), either_engine)
def test_exact_matches_enumeration_with_and_without_shared_cache(case, budget):
    clauses, probs = case
    truth = enumerate_worlds(clauses, probs)
    f = DNF(clauses)
    assert dnf_probability(f, probs, budget=budget) == pytest.approx(
        truth, abs=1e-12
    )

    cache = SubformulaCache()
    cold = DPLLStats()
    assert dnf_probability(
        f, probs, stats=cold, cache=cache, budget=budget
    ) == pytest.approx(truth, abs=1e-12)
    # an isomorphic formula over other variables: answered at the root, in
    # front of either engine
    clauses2, probs2 = renamed(clauses, probs)
    warm = DPLLStats()
    again = dnf_probability(
        DNF(clauses2), probs2, stats=warm, cache=cache, budget=budget
    )
    assert again == pytest.approx(truth, abs=1e-12)
    if cold.calls or cold.eliminated:  # not decided before a solver started
        assert (warm.calls, warm.eliminated, warm.memo_hits) == (0, 0, 1)


@settings(max_examples=60, deadline=None)
@given(formulas(wide=True), either_engine)
def test_multi_limb_masks_match_the_compiled_circuit(case, budget):
    clauses, probs = case
    f = DNF(clauses)
    assert len(f.variables()) > 64
    reference = compile_dnf(f, probs).probability()
    assert dnf_probability(f, probs, budget=budget) == pytest.approx(
        reference, abs=1e-12
    )
    assert dnf_probability(
        f, probs, cache=SubformulaCache(), budget=budget
    ) == pytest.approx(reference, abs=1e-12)
    iv = approximate_probability(f, probs, epsilon=1e-3)
    assert iv.contains(reference)


@settings(max_examples=100, deadline=None)
@given(formulas(), st.sampled_from([0.5, 0.05, 1e-6]), st.integers(0, 40))
def test_interval_always_encloses_exact(case, epsilon, max_calls):
    clauses, probs = case
    f = DNF(clauses)
    exact = dnf_probability(f, probs)
    iv = approximate_probability(f, probs, epsilon=epsilon, max_calls=max_calls)
    assert iv.contains(exact, tolerance=1e-12)


@settings(max_examples=100, deadline=None)
@given(formulas(), st.data())
def test_budget_error_is_raised_on_call_cap_plus_one(case, data):
    clauses, probs = case
    f = DNF(clauses)
    full = DPLLStats()
    dnf_probability(f, probs, stats=full, budget=DPLL_ONLY)
    if full.calls == 0:  # decided by simplification, or nothing is shared
        return
    cap = data.draw(st.integers(0, full.calls - 1))
    stats = DPLLStats()
    with pytest.raises(DPLLBudgetError):
        dnf_probability(f, probs, max_calls=cap, stats=stats, budget=DPLL_ONLY)
    assert stats.calls == cap + 1
    exact = DPLLStats()
    dnf_probability(
        f, probs, max_calls=full.calls, stats=exact, budget=DPLL_ONLY
    )
    assert exact == full
    # eliminated instead, the same formula never meets the cap
    dnf_probability(f, probs, max_calls=0, stats=stats)
    assert stats.calls == 0


@settings(max_examples=100, deadline=None)
@given(
    formulas(max_components=4), st.randoms(use_true_random=False),
    either_engine,
)
def test_work_does_not_depend_on_clause_order(case, rng: random.Random, budget):
    clauses, probs = case
    first = DPLLStats()
    p1 = dnf_probability(DNF(clauses), probs, stats=first, budget=budget)
    shuffled = [frozenset(rng.sample(sorted(c), len(c))) for c in clauses]
    rng.shuffle(shuffled)
    second = DPLLStats()
    p2 = dnf_probability(
        DNF(shuffled), dict(rng.sample(sorted(probs.items()), len(probs))),
        stats=second, budget=budget,
    )
    assert first == second
    assert p1 == p2
