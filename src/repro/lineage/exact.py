"""Exact DNF probability by DPLL-style variable elimination.

This is the library's stand-in for MayBMS's exact confidence computation [16]
("conditioning probabilistic databases"): Shannon expansion on a chosen
variable, with the standard optimisations that make it competitive —

* **independent components**: variable-disjoint sub-DNFs multiply,
  ``Pr(F1 ∨ F2) = 1 - (1 - Pr(F1)) (1 - Pr(F2))``;
* **common-variable factoring**: a variable in every clause factors out,
  ``Pr(x ∧ F') = p(x) · Pr(F')``;
* **memoisation** of sub-formula probabilities — per call by identity,
  and across calls through a shared :class:`~repro.perf.SubformulaCache`
  keyed by rename-invariant canonical forms, consulted for whole lineages
  and their big independent components, so a repeated or isomorphic answer
  of a multi-answer query is a lookup;
* deterministic variables (probability 1) simplified away up front.

Clauses are int bitmasks over a per-call variable numbering
(:mod:`repro.lineage.masks`).

Worst-case exponential, as it must be (#P-hardness); on nearly-read-once
lineage it runs in near-linear time, which is what makes it a fair
competitor line for Figures 5-7.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from repro.errors import DPLLBudgetError
from repro.lineage.dnf import DNF, EventVar
from repro.lineage.masks import (
    Formula,
    bits,
    branch_bit,
    cofactors,
    common,
    deep_recursion,
    encode,
    split,
    weight,
)
from repro.obs.trace import span as _span
from repro.perf.cache import SubformulaCache, canonical_key

#: Fewest clauses a component of the root formula needs to go through the
#: shared :class:`SubformulaCache`: a rename-invariant key costs a sort of
#: the component, dearer than re-solving a small one (table: DESIGN.md 7.2).
SHARED_CACHE_FLOOR = 24


@dataclass
class DPLLStats:
    """Work accounting for one :func:`dnf_probability` call.

    ``calls`` counts invocations of the recursion (the unit of
    ``max_calls``); ``memo_hits`` counts formulas answered from the per-call
    identity memo or the shared cache. All four are a function of the clause
    set alone — clause order and the string hash seed do not move them.
    """

    calls: int = 0
    shannon_branches: int = 0
    component_splits: int = 0
    memo_hits: int = 0

    @property
    def hits(self) -> int:
        """Alias of :attr:`memo_hits`.

        :class:`~repro.perf.cache.CacheStats` calls the same quantity
        ``hits``; the alias lets callers read either accounting object
        uniformly (the historic ``stats.hits`` vs ``stats.memo_hits``
        split).
        """
        return self.memo_hits

    def as_dict(self) -> dict:
        """Plain-dict view, the shape a
        :class:`~repro.obs.metrics.MetricsRegistry` absorbs."""
        return asdict(self)


class _Solver:
    """The recursion over mask formulas (:mod:`repro.lineage.masks`).

    Two memo levels: every call looks its formula up in ``memo`` by identity
    (hashing a frozenset of ints); the shared cache is consulted only for
    the root formula and its components (:data:`SHARED_CACHE_FLOOR`).
    """

    #: Calls between cooperative deadline checks (one ``time.monotonic()``
    #: per block keeps the hot recursion unburdened).
    CHECK_EVERY = 256

    def __init__(
        self,
        probs: list[float],
        max_calls: int,
        cache: SubformulaCache | None = None,
        budget=None,
    ) -> None:
        self.probs = probs
        self.memo: dict[Formula, float] = {}
        self.stats = DPLLStats()
        self.max_calls = max_calls
        self.cache = cache
        self.budget = budget

    def probability(self, formula: Formula, root: bool = False) -> float:
        stats = self.stats
        stats.calls += 1
        if stats.calls > self.max_calls:
            raise DPLLBudgetError(
                f"DPLL exceeded the budget of {self.max_calls} calls; the "
                f"lineage is intractable for exact intensional evaluation"
            )
        if self.budget is not None and stats.calls % self.CHECK_EVERY == 0:
            self.budget.checkpoint("dpll")
        if not formula:
            return 0.0
        if 0 in formula:
            return 1.0
        hit = self.memo.get(formula)
        if hit is not None:
            stats.memo_hits += 1
            return hit
        if root and self.cache is not None:
            result = self._shared(formula, self._components, True)
        else:
            result = self._components(formula)
        self.memo[formula] = result
        return result

    def _components(self, formula: Formula, root: bool = False) -> float:
        """Split into variable-disjoint components; multiply failures."""
        groups = split(formula)
        if len(groups) == 1:
            return self._factor(formula)
        self.stats.component_splits += 1
        failure = 1.0
        for g in groups:
            if root and len(g) >= SHARED_CACHE_FLOOR:
                failure *= 1.0 - self._shared(g, self._factor)
            else:
                failure *= 1.0 - self._factor(g)
            if failure == 0.0:
                break
        return 1.0 - failure

    def _shared(self, formula: Formula, solve, *args) -> float:
        """``solve(formula, *args)`` through the rename-invariant cache."""
        key = canonical_key([bits(c) for c in formula], self.probs)
        hit = self.cache.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        result = solve(formula, *args)
        self.cache.put(key, result)
        return result

    def _factor(self, formula: Formula) -> float:
        """Factor out variables common to every clause, then branch."""
        shared = common(formula)
        if not shared:
            return self._shannon(formula)
        w = weight(shared, self.probs)
        rest = frozenset([c ^ shared for c in formula])
        if 0 in rest:
            return w
        return w * self.probability(rest)

    def _shannon(self, formula: Formula) -> float:
        """Branch on the most frequent variable (lowest id on ties)."""
        self.stats.shannon_branches += 1
        bit = branch_bit(formula)
        p = self.probs[bit.bit_length() - 1]
        positive, negative = cofactors(formula, bit)
        pos = 1.0 if 0 in positive else self.probability(positive)
        return p * pos + (1.0 - p) * self.probability(negative)


def dnf_probability(
    dnf: DNF,
    probs: Mapping[EventVar, float],
    *,
    max_calls: int = 5_000_000,
    stats: DPLLStats | None = None,
    cache: SubformulaCache | None = None,
    budget=None,
) -> float:
    """Exact probability of a positive DNF over independent variables.

    Parameters
    ----------
    dnf:
        The formula.
    probs:
        Marginal probability of each variable. Variables with probability 1
        are simplified away before solving; probability-0 variables delete
        their clauses.
    max_calls:
        Work budget; :class:`~repro.errors.DPLLBudgetError` (an
        :class:`~repro.errors.InferenceError` that is also a
        :class:`~repro.errors.BudgetExceededError`) beyond it — the
        paper's Fig. 6/7 "both systems fail" regime.
    budget:
        Optional :class:`~repro.resilience.QueryBudget`; its deadline is
        checked cooperatively every :attr:`_Solver.CHECK_EVERY` calls.
    stats:
        Optional accounting object, filled in place — also when the solve
        raises, so a capped attempt reports the calls it made.
    cache:
        Optional shared :class:`~repro.perf.SubformulaCache`, consulted
        beside the per-call memo for the whole formula and for each of its
        independent components of :data:`SHARED_CACHE_FLOOR` clauses or
        more; ``stats.memo_hits`` counts hits of both levels.

    Examples
    --------
    >>> from repro.lineage.dnf import DNF, EventVar
    >>> x, y = EventVar("R", (1,)), EventVar("R", (2,))
    >>> f = DNF([frozenset([x]), frozenset([y])])
    >>> round(dnf_probability(f, {x: 0.5, y: 0.5}), 6)
    0.75

    A shared cache turns the second, isomorphic solve into a lookup. The
    cache's :class:`~repro.perf.cache.CacheStats` counts it as ``hits``;
    the solver's :class:`DPLLStats` as ``memo_hits`` — :attr:`DPLLStats
    .hits` aliases the latter so both read the same way:

    >>> from repro.perf import SubformulaCache
    >>> shared = SubformulaCache()
    >>> f2 = DNF([frozenset([x, y])])
    >>> _ = dnf_probability(f2, {x: 0.3, y: 0.4}, cache=shared)
    >>> z, w = EventVar("S", (1,)), EventVar("S", (2,))
    >>> f3 = DNF([frozenset([z, w])])
    >>> st = DPLLStats()
    >>> _ = dnf_probability(f3, {z: 0.3, w: 0.4}, stats=st, cache=shared)
    >>> shared.stats.hits >= 1 and st.hits == st.memo_hits
    True
    """
    if dnf.is_true:
        return 1.0
    if dnf.is_false:
        return 0.0
    variables = sorted(dnf.variables())
    p = [float(probs[v]) for v in variables]
    formula = encode(dnf.clauses, {v: i for i, v in enumerate(variables)}, p)
    if 0 in formula:
        return 1.0
    if not formula:
        return 0.0
    solver = _Solver(p, max_calls, cache, budget)
    with _span(
        "dnf_probability", variables=len(p), clauses=len(formula)
    ) as sp, deep_recursion(len(p)):
        try:
            return solver.probability(formula, root=True)
        finally:  # a capped or timed-out solve reports its calls too
            for name, value in solver.stats.as_dict().items():
                sp.add(name, value)
                if stats is not None:
                    setattr(stats, name, value)
