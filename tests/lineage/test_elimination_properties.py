"""Property tests for the width-first exact solve: bucket elimination over
the clause masks against possible-worlds enumeration, against the DPLL
recursion it stands in front of, and for the things that must not depend on
how the formula was written down."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError
from repro.lineage import exact
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.exact import DPLLStats, dnf_probability
from repro.lineage.masks import min_degree_order
from repro.resilience import QueryBudget

from tests.lineage.test_dpll_properties import DPLL_ONLY

edge_probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
    st.floats(min_value=0.01, max_value=0.99),
)


def var(i: int) -> EventVar:
    return EventVar("V", (i,))


@st.composite
def small_formulas(draw):
    """``(clauses, probs)`` over at most 16 variables in one to three
    variable-disjoint components; duplicate, subsumed and single-literal
    clauses all arise. ``shape`` forces the two extremes of the fold:
    ``private`` partitions the variables (nothing is shared), ``shared`` adds
    a single-literal clause for every variable that occurred once."""
    shape = draw(st.sampled_from(["mixed", "private", "shared"]))
    clauses: list[frozenset[int]] = []
    base = 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 16 - base if base > 10 else 6))
        ids = list(range(base, base + size))
        base += size
        if shape == "private":
            cuts = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            clause: list[int] = []
            for i, cut in zip(ids, cuts):
                clause.append(i)
                if cut:
                    clauses.append(frozenset(clause))
                    clause = []
            if clause:
                clauses.append(frozenset(clause))
        else:
            for _ in range(draw(st.integers(1, 6))):
                clauses.append(frozenset(
                    draw(st.sets(st.sampled_from(ids), min_size=1, max_size=4))
                ))
        if base >= 16:
            break
    if shape == "shared":
        seen = [v for c in clauses for v in c]
        clauses += [frozenset([v]) for v in set(seen) if seen.count(v) == 1]
    used = sorted({v for c in clauses for v in c})
    probs = {var(i): draw(edge_probabilities) for i in used}
    return [frozenset(var(i) for i in c) for c in clauses], probs


def enumerate_worlds(clauses, probs) -> float:
    """Pr(some clause holds), summed over all assignments (vectorised)."""
    variables = sorted({v for c in clauses for v in c})
    bit = {v: 1 << i for i, v in enumerate(variables)}
    worlds = np.arange(1 << len(variables))
    holds = np.zeros(len(worlds), dtype=bool)
    for c in clauses:
        m = sum(bit[v] for v in c)
        holds |= (worlds & m) == m
    weight = np.ones(len(worlds))
    for v in variables:
        weight *= np.where(worlds & bit[v], probs[v], 1.0 - probs[v])
    return float(weight[holds].sum())


@settings(max_examples=200, deadline=None)
@given(small_formulas())
def test_elimination_matches_enumeration(case):
    clauses, probs = case
    stats = DPLLStats()
    got = dnf_probability(DNF(clauses), probs, stats=stats)
    assert stats.calls == 0  # at most 16 variables: never over the limit
    assert got == pytest.approx(enumerate_worlds(clauses, probs), abs=1e-12)


@st.composite
def long_formulas(draw):
    """Clauses of one to four variables drawn from a sliding window over
    more than 64 (or 128) variables: multi-limb masks, modest width, and a
    DPLL trace that finishes."""
    n = draw(st.sampled_from([70, 140]))
    clauses = []
    for start in range(0, n - 5, draw(st.integers(1, 3))):
        window = list(range(start, start + 6))
        clauses.append(frozenset(
            draw(st.sets(st.sampled_from(window), min_size=1, max_size=4))
        ))
    clauses.append(frozenset([0, n - 1]))  # the last id is always used
    used = sorted({v for c in clauses for v in c})
    probs = {var(i): draw(edge_probabilities) for i in used}
    return [frozenset(var(i) for i in c) for c in clauses], probs


@settings(max_examples=60, deadline=None)
@given(long_formulas())
def test_elimination_matches_the_dpll_recursion_on_multi_limb_masks(case):
    clauses, probs = case
    f = DNF(clauses)
    ve, dpll = DPLLStats(), DPLLStats()
    eliminated = dnf_probability(f, probs, stats=ve)
    branched = dnf_probability(f, probs, stats=dpll, budget=DPLL_ONLY)
    assert ve.calls == 0 and dpll.eliminated == 0
    assert eliminated == pytest.approx(branched, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 2**12 - 1), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
)
def test_order_is_a_function_of_the_scope_set(scopes, rng: random.Random):
    shuffled = scopes + rng.sample(scopes, len(scopes) // 2)  # duplicates too
    rng.shuffle(shuffled)
    assert min_degree_order(shuffled, 12) == min_degree_order(scopes, 12)
    order, width = min_degree_order(scopes, 12)
    assert width == max(nbrs.bit_count() for _, nbrs in order)
    assert sorted(v for v, _ in order) == sorted(
        {i for s in scopes for i in range(12) if s >> i & 1}
    )


@settings(max_examples=100, deadline=None)
@given(small_formulas(), st.integers(0, 4))
def test_width_limit_is_respected_and_decided_before_any_table(case, max_width):
    clauses, probs = case
    built: list[int] = []
    ones = np.ones

    def recording_ones(shape, *args, **kwargs):
        built.append(2 ** len(shape))
        return ones(shape, *args, **kwargs)

    stats = DPLLStats()
    exact.np.ones = recording_ones
    try:
        got = dnf_probability(
            DNF(clauses), probs, stats=stats,
            budget=QueryBudget(max_width=max_width),
        )
    finally:
        exact.np.ones = ones
    assert got == pytest.approx(dnf_probability(DNF(clauses), probs), abs=1e-12)
    if stats.calls:  # over the limit: DPLL answered, no table was built
        assert stats.width > max_width
        assert (stats.eliminated, built) == (0, [])
    else:
        assert stats.width <= max_width
        assert len(built) == stats.eliminated
        assert max(built, default=0) <= 2 ** (max_width + 1)


def test_deadline_interrupts_between_eliminations():
    class ExpiresAfter(QueryBudget):
        """Its deadline passes at the fourth checkpoint."""

        checkpoints = 0

        def checkpoint(self, stage: str = "") -> None:
            type(self).checkpoints += 1
            if self.checkpoints > 3:
                raise DeadlineExceededError(f"deadline exceeded during {stage}")

    chain = [frozenset([var(i), var(i + 1)]) for i in range(10)]
    probs = {var(i): 0.5 for i in range(11)}
    stats = DPLLStats()
    with pytest.raises(DeadlineExceededError, match="eliminate"):
        dnf_probability(DNF(chain), probs, stats=stats, budget=ExpiresAfter())
    # one checkpoint per eliminated variable, and the work so far reported
    assert (stats.eliminated, stats.calls) == (3, 0)
    # a deadline already in the past stops it at the first variable
    with pytest.raises(DeadlineExceededError):
        dnf_probability(
            DNF(chain), probs, stats=stats,
            budget=QueryBudget(deadline_seconds=0.0).start(),
        )
    assert stats.eliminated == 0


def test_result_stats_and_order_do_not_depend_on_the_hash_seed():
    script = textwrap.dedent("""
        import random
        from repro.lineage.dnf import DNF, EventVar
        from repro.lineage.exact import DPLLStats, dnf_probability
        from repro.lineage.masks import encode, min_degree_order, shared_variables

        rng = random.Random(7)
        names = ["R", "S", "T", "U"]
        vs = [EventVar(rng.choice(names), (i,)) for i in range(40)]
        clauses = [frozenset(rng.sample(vs, rng.randint(1, 3))) for _ in range(45)]
        probs = {v: rng.uniform(0.1, 0.9) for v in vs}
        stats = DPLLStats()
        p = dnf_probability(DNF(clauses), probs, stats=stats)
        index = {v: i for i, v in enumerate(sorted(DNF(clauses).variables()))}
        formula = encode(clauses, index)
        shared = shared_variables(formula)
        order = min_degree_order({c & shared for c in formula if c & shared}, 16)
        print(repr(p), stats, order)
    """)
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1 and "eliminated=" in outputs.pop()
