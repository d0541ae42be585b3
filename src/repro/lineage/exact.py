"""Exact DNF probability: bucket elimination when narrow, DPLL beyond.

``Pr(F) = 1 − Σ_x w(x) · ∏_c [clause c not satisfied by x]`` is a sum-product
with one factor per clause, so its cost is exponential only in the induced
width of the clause hypergraph (the paper's cost model for the final
inference step, Thm. 4.2 / 5.17). :func:`dnf_probability` therefore first
tries :func:`_eliminate` — fold the variables private to one clause into
that clause's weight, order the shared ones by min-degree, bucket-eliminate
with NumPy tables — and only a formula whose min-degree order exceeds
:data:`ELIMINATION_WIDTH_LIMIT` goes to the DPLL recursion.

That recursion is the library's stand-in for MayBMS's exact confidence
computation [16] ("conditioning probabilistic databases"): Shannon expansion
on a chosen variable, with the standard optimisations that make it
competitive —

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
competitor line for Figures 5-7. Both engines sit behind one root lookup in
the shared cache, and which one answered is a function of the clause set
(and the width limit) alone — there is no switch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

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
    min_degree_order,
    shared_variables,
    split,
    weight,
)
from repro.obs.trace import span as _span
from repro.perf.cache import SubformulaCache, canonical_key

#: Fewest clauses a component of the root formula needs to go through the
#: shared :class:`SubformulaCache`: a rename-invariant key costs a sort of
#: the component, dearer than re-solving a small one (table: DESIGN.md 7.2).
SHARED_CACHE_FLOOR = 24

#: Widest min-degree order :func:`_eliminate` takes (tables of at most
#: ``2**(limit + 1)`` doubles); wider formulas go to the DPLL recursion.
#: From the measured crossover (table: DESIGN.md 7.2). A
#: :class:`~repro.resilience.QueryBudget` with ``max_width`` set overrides it.
ELIMINATION_WIDTH_LIMIT = 16

#: Ceiling on what ``max_width`` can raise the limit to: tables of ``2**22``
#: doubles (32 MB), the network engine's ``MAX_FACTOR_VARS``. A budget is
#: outside input; a typo must not ask for a terabyte.
_WIDTH_CEILING = 21


@dataclass
class DPLLStats:
    """Work accounting for one :func:`dnf_probability` call.

    ``calls`` counts invocations of the DPLL recursion (the unit of
    ``max_calls``) and is 0 when the formula was eliminated instead:
    ``eliminated`` is then the number of shared variables summed out and
    ``width`` the induced width of their min-degree order. When DPLL ran,
    ``width`` is the minimum degree at which that order was abandoned — a
    lower bound, over the limit. ``memo_hits`` counts formulas answered
    from the per-call identity memo or the shared cache.
    All six are a function of the clause set alone — clause order and the
    string hash seed do not move them.
    """

    calls: int = 0
    shannon_branches: int = 0
    component_splits: int = 0
    memo_hits: int = 0
    eliminated: int = 0
    width: int = 0

    @property
    def hits(self) -> int:
        """Alias of :attr:`memo_hits`.

        :class:`~repro.perf.cache.CacheStats` calls the same quantity
        ``hits``; the alias lets callers read either accounting object
        uniformly (the historic ``stats.hits`` vs ``stats.memo_hits``
        split).
        """
        return self.memo_hits

    @property
    def engine(self) -> str:
        """What answered: ``"dpll"`` (also when the cap ended it),
        ``"lineage-ve"`` (with ``eliminated == 0`` when simplification or
        the fold alone decided it), or ``"cache"`` for a root hit in the
        shared cache, which runs neither."""
        if self.calls:
            return "dpll"
        return "cache" if self.memo_hits else "lineage-ve"

    def as_dict(self) -> dict:
        """Plain-dict view, the shape a
        :class:`~repro.obs.metrics.MetricsRegistry` absorbs."""
        return asdict(self)


def _eliminate(
    formula: Formula, probs: Sequence[float], limit: int, budget, stats, sp
) -> float | None:
    """``Pr(formula)`` by bucket elimination; ``None`` when the min-degree
    order of the shared variables is wider than *limit* (decided before any
    table exists).

    Each clause is the factor "1, except 0 where all my variables are true".
    Summing a clause's private variables out leaves 1 except ``1 − w`` (*w*
    the private variables' weight) where its shared variables are all true,
    so a clause is held as ``(shared scope, 1 − w)`` and multiplied into a
    bucket's table as one strided in-place scale. Table axes are kept in
    reverse elimination order — the bucket's own variable last — so joining
    a table is a reshape plus broadcast and summing out is a slice of the
    last axis. Clauses are taken in sorted order: the float result does not
    depend on set iteration order either.
    """
    started = perf_counter()
    shared = shared_variables(formula)
    failure = 1.0  # Pr(no clause holds), built up factor by factor
    clauses: dict[int, float] = {}
    for c in sorted(formula):
        miss = 1.0 - weight(c & ~shared, probs)
        scope = c & shared
        if scope:
            clauses[scope] = clauses.get(scope, 1.0) * miss
        else:
            failure *= miss
    order, stats.width = min_degree_order(clauses, limit)
    if order is None:
        return None
    position = {v: i for i, (v, _) in enumerate(order)}
    buckets: dict[int, list] = {v: [] for v in position}
    for scope, miss in clauses.items():
        buckets[min(bits(scope), key=position.__getitem__)].append((scope, miss))
    tables: dict[int, list] = {}
    for v, nbrs in order:
        if budget is not None:
            budget.checkpoint("eliminate")
        axes = sorted(bits(nbrs), key=position.__getitem__, reverse=True)
        axes.append(v)
        table = np.ones((2,) * len(axes))
        for scope, t in tables.pop(v, ()):
            table *= t.reshape([2 if scope >> a & 1 else 1 for a in axes])
        for scope, miss in buckets[v]:
            table[
                tuple([1 if scope >> a & 1 else slice(None) for a in axes])
            ] *= miss
        p = probs[v]
        table = table[..., 0] * (1.0 - p) + table[..., 1] * p
        if nbrs:
            tables.setdefault(axes[-2], []).append((nbrs, table))
        else:
            failure *= float(table)
        stats.eliminated += 1
    # calibration: the order's predicted cost beside what it took
    sp.add("predicted_cost", sum(2 ** (n.bit_count() + 1) for _, n in order))
    sp.add("eliminate_seconds", perf_counter() - started)
    return 1.0 - failure


class _Solver:
    """The recursion over mask formulas (:mod:`repro.lineage.masks`).

    Two memo levels: every call looks its formula up in ``memo`` by identity
    (hashing a frozenset of ints); the shared cache is consulted only for
    the root formula (by :func:`dnf_probability`, in front of both engines)
    and its components (:data:`SHARED_CACHE_FLOOR`).
    """

    #: Calls between cooperative deadline checks (one ``time.monotonic()``
    #: per block keeps the hot recursion unburdened).
    CHECK_EVERY = 256

    def __init__(
        self,
        probs: list[float],
        max_calls: int,
        cache: SubformulaCache | None,
        budget,
        stats: DPLLStats,
    ) -> None:
        self.probs = probs
        self.memo: dict[Formula, float] = {}
        self.stats = stats
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
        result = self._components(formula, root and self.cache is not None)
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

    def _shared(self, formula: Formula, solve) -> float:
        """``solve(formula)`` through the rename-invariant cache."""
        key = canonical_key([bits(c) for c in formula], self.probs)
        hit = self.cache.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        result = solve(formula)
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

    Bucket elimination when the min-degree order of the clause hypergraph
    is at most :data:`ELIMINATION_WIDTH_LIMIT` wide (the budget's
    ``max_width`` when set), the DPLL recursion otherwise; the formula
    decides, the caller does not.

    Parameters
    ----------
    dnf:
        The formula.
    probs:
        Marginal probability of each variable. Variables with probability 1
        are simplified away before solving; probability-0 variables delete
        their clauses.
    max_calls:
        Work budget of the DPLL recursion;
        :class:`~repro.errors.DPLLBudgetError` (an
        :class:`~repro.errors.InferenceError` that is also a
        :class:`~repro.errors.BudgetExceededError`) beyond it — the
        paper's Fig. 6/7 "both systems fail" regime. An eliminated formula
        makes no calls.
    budget:
        Optional :class:`~repro.resilience.QueryBudget`; its deadline is
        checked cooperatively once per eliminated variable and every
        :attr:`_Solver.CHECK_EVERY` calls.
    stats:
        Optional accounting object, filled in place — also when the solve
        raises, so a capped attempt reports the calls it made.
    cache:
        Optional shared :class:`~repro.perf.SubformulaCache`, consulted for
        the whole formula before either engine runs and, by the DPLL
        recursion, for each independent component of
        :data:`SHARED_CACHE_FLOOR` clauses or more; ``stats.memo_hits``
        counts hits of the cache and of the per-call memo.

    Examples
    --------
    >>> from repro.lineage.dnf import DNF, EventVar
    >>> x, y = EventVar("R", (1,)), EventVar("R", (2,))
    >>> f = DNF([frozenset([x]), frozenset([y])])
    >>> round(dnf_probability(f, {x: 0.5, y: 0.5}), 6)
    0.75

    The accounting says which engine answered. A triangle of clauses is two
    variables wide and is eliminated; with the width capped below that, the
    same formula is branched on:

    >>> z = EventVar("R", (3,))
    >>> triangle, half = DNF([{x, y}, {y, z}, {z, x}]), {x: 0.5, y: 0.5, z: 0.5}
    >>> st = DPLLStats()
    >>> dnf_probability(triangle, half, stats=st)
    0.5
    >>> st.engine, st.calls, st.eliminated, st.width
    ('lineage-ve', 0, 3, 2)
    >>> from repro.resilience import QueryBudget
    >>> dnf_probability(triangle, half, stats=st, budget=QueryBudget(max_width=1))
    0.5
    >>> st.engine, st.calls > 0, st.eliminated
    ('dpll', True, 0)

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
    >>> shared.stats.hits, st.hits == st.memo_hits, st.engine
    (1, True, 'cache')
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
    limit = ELIMINATION_WIDTH_LIMIT
    if budget is not None:
        limit = min(budget.width_limit(limit), _WIDTH_CEILING)
    work = DPLLStats()
    with _span("dnf_probability", variables=len(p), clauses=len(formula)) as sp:
        try:
            if cache is not None:
                key = canonical_key([bits(c) for c in formula], p)
                result = cache.get(key)
                if result is not None:
                    work.memo_hits = 1
                    return result
            result = _eliminate(formula, p, limit, budget, work, sp)
            if result is None:
                solver = _Solver(p, max_calls, cache, budget, work)
                with deep_recursion(len(p)):
                    result = solver.probability(formula, root=True)
            if cache is not None:
                cache.put(key, result)
            return result
        finally:  # a capped or timed-out solve reports its work too
            sp.annotate(path=work.engine, width=work.width)
            for name, value in work.as_dict().items():
                if name != "width":
                    sp.add(name, value)
                if stats is not None:
                    setattr(stats, name, value)
