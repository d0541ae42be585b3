"""Performance infrastructure: cross-call caches and work counters.

The inference engines each memoise within a single call; this package holds
the state that is worth keeping *between* calls — most importantly the
canonical-key subformula cache that lets the DPLL solver and the OBDD
builder reuse results across the N per-answer lineages of a multi-answer
query (Section 6.1's "N Boolean queries" view) — plus the component-sliced,
process-parallel marginal drivers built on that cache
(:mod:`repro.perf.parallel`).
"""

from repro.perf.cache import CacheStats, SubformulaCache, canonical_key
from repro.perf.parallel import (
    DEFAULT_MIN_PARALLEL_COST,
    parallel_marginals,
    solve_slice,
)

__all__ = [
    "CacheStats",
    "SubformulaCache",
    "canonical_key",
    "DEFAULT_MIN_PARALLEL_COST",
    "parallel_marginals",
    "solve_slice",
]
