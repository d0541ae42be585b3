"""Approximate confidence computation with error guarantees [19].

Olteanu-Huang-Koch (ICDE 2010) approximate a DNF's probability by partially
expanding its decomposition tree and keeping *interval bounds* at the
frontier. We reproduce the approach on our DPLL decomposition rules:

* frontier bounds for a clause set ``F``:
  ``lower = max_clause Pr(clause)`` (any single clause implies ``F``) and
  ``upper = min(1, Σ Pr(clause))`` (the union bound);
* **independent components** combine as ``1 - Π (1 - I_i)`` — monotone in
  each interval endpoint;
* **common-variable factoring** multiplies by the factored weight;
* **Shannon expansion** combines convexly: ``p·I₁ + (1-p)·I₀``, whose width
  is the probability-weighted average of the children's widths — so an
  ``ε``-budget can be *passed down* unchanged, and for components split as
  ``ε/k`` (the width of the combination is at most the sum of widths).

``approximate_probability`` expands until the root interval is narrower than
``epsilon`` (absolute error) or the call budget runs out, returning the
interval — so even a truncated run is *sound*: the true probability always
lies inside.
"""

from __future__ import annotations

from typing import Mapping

from repro.enclosure import Enclosure
from repro.errors import DeadlineExceededError
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.masks import (
    Formula,
    branch_bit,
    cofactors,
    common,
    deep_recursion,
    encode,
    split,
    weight,
)


def _bounds(lower: float, upper: float) -> Enclosure:
    return Enclosure(lower, upper, "bounds", False)


class _Approximator:
    #: Expansion steps between cooperative deadline checks.
    CHECK_EVERY = 256

    def __init__(self, probs: list[float], max_calls: int, budget=None) -> None:
        self.probs = probs
        self.max_calls = max_calls
        self.calls = 0
        self.budget = budget
        self.truncated = False

    def frontier(self, formula: Formula) -> Enclosure:
        """Cheap sound bounds without expansion."""
        weights = [weight(c, self.probs) for c in formula]
        return _bounds(max(weights), min(1.0, sum(weights)))

    def bounds(self, formula: Formula, epsilon: float) -> Enclosure:
        if not formula:
            return _bounds(0.0, 0.0)
        if 0 in formula:
            return _bounds(1.0, 1.0)
        self.calls += 1
        if (
            self.budget is not None
            and not self.truncated
            and self.calls % self.CHECK_EVERY == 0
        ):
            try:
                self.budget.checkpoint("approx-bounds")
            except DeadlineExceededError:
                # Deadline passed mid-expansion: stop deepening and unwind
                # with frontier bounds everywhere below this point. Same
                # sound truncation as call-budget exhaustion — the interval
                # stays a true enclosure, only wider than requested.
                self.truncated = True
        cheap = self.frontier(formula)
        if cheap.width <= epsilon or self.calls > self.max_calls or self.truncated:
            return cheap

        groups = split(formula)
        if len(groups) > 1:
            share = epsilon / len(groups)
            # 1 - Π(1 - p_i) is increasing in every p_i, so the result's
            # lower bound uses the children's lower bounds and vice versa.
            fail_high = fail_low = 1.0
            for g in groups:
                sub = self._factored(g, share)
                fail_high *= 1.0 - sub.lower
                fail_low *= 1.0 - sub.upper
            return _bounds(1.0 - fail_high, 1.0 - fail_low)
        return self._factored(formula, epsilon)

    def _factored(self, formula: Formula, epsilon: float) -> Enclosure:
        shared = common(formula)
        if not shared:
            return self._shannon(formula, epsilon)
        w = weight(shared, self.probs)
        rest = frozenset([c ^ shared for c in formula])
        if 0 in rest:
            return _bounds(w, w)
        # widening epsilon by /w keeps the scaled width within budget
        inner = self.bounds(rest, min(1.0, epsilon / max(w, 1e-12)))
        return _bounds(w * inner.lower, w * inner.upper)

    def _shannon(self, formula: Formula, epsilon: float) -> Enclosure:
        bit = branch_bit(formula)
        p = self.probs[bit.bit_length() - 1]
        positive, negative = cofactors(formula, bit)
        pos = self.bounds(positive, epsilon)
        neg = self.bounds(negative, epsilon)
        return _bounds(
            p * pos.lower + (1.0 - p) * neg.lower,
            p * pos.upper + (1.0 - p) * neg.upper,
        )


def approximate_probability(
    dnf: DNF,
    probs: Mapping[EventVar, float],
    epsilon: float = 0.01,
    max_calls: int = 200_000,
    *,
    budget=None,
) -> Enclosure:
    """A sound interval of width ≤ *epsilon* around ``Pr(dnf)`` — or the best
    interval reachable within *max_calls* expansion steps.

    *budget* is an optional :class:`~repro.resilience.QueryBudget`: its
    wall-clock deadline is checked cooperatively inside the expansion loop,
    and a passed deadline *truncates* the expansion (frontier bounds below
    the current point) rather than raising — a degraded-but-sound interval
    beats no answer on the bounds rung of the degradation ladder.

    Examples
    --------
    >>> x, y, z = (EventVar("R", (i,)) for i in range(3))
    >>> f = DNF([{x, y}, {y, z}, {z, x}])
    >>> iv = approximate_probability(f, {x: .5, y: .5, z: .5}, epsilon=0.001)
    >>> iv.contains(0.5)        # exact: 2*(1/8) + ... = 0.5
    True
    >>> iv.width <= 0.001
    True
    """
    if dnf.is_true:
        return _bounds(1.0, 1.0)
    if dnf.is_false:
        return _bounds(0.0, 0.0)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    variables = sorted(dnf.variables())
    p = [float(probs[v]) for v in variables]
    formula = encode(dnf.clauses, {v: i for i, v in enumerate(variables)}, p)
    with deep_recursion(len(variables)):
        return _Approximator(p, max_calls, budget).bounds(formula, epsilon)
