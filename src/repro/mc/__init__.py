"""MCDB-style Monte-Carlo query processing [13].

The bluntest baseline in the paper's related work: estimate each answer's
probability as the share of sampled worlds that return it. Worlds are drawn
in NumPy blocks over the query's grounded lineage (one shared sampler,
:mod:`repro.lineage.sampling`), for tuple-independent and, via
:mod:`repro.bid`, block-disjoint data alike. No inference: it converges like
``1/√n`` and serves in the test suite as yet another independent
implementation to cross-check the exact engines against.
"""

from repro.mc.engine import mc_answer_probabilities, mc_query_probability

__all__ = [
    "mc_query_probability",
    "mc_answer_probabilities",
]
