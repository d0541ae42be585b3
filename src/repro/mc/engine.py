"""Monte-Carlo query evaluation over grounded lineage.

Both estimators ground the query's lineage once (the Section 6.1 "N Boolean
queries" view), then hand it to
:func:`repro.lineage.sampling.monte_carlo_answers`, which draws worlds in
NumPy blocks and decides every answer's lineage with one incidence-matrix
product per block. That is the same as sampling whole
database instances and running the deterministic query on each: a world
satisfies the query (returns an answer) iff it satisfies the lineage
(Definition 3.5).

BID databases take the same path. Each alternative is an event variable, and
the sampler draws one uniform per block that picks at most one of the
block's alternatives (:class:`repro.lineage.sampling.WorldLayout`), so block
exclusivity holds in every sampled world.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.bid.relation import BIDDatabase
from repro.db.database import ProbabilisticDatabase
from repro.db.schema import Row
from repro.lineage.dnf import answer_lineages
from repro.lineage.sampling import monte_carlo_answers
from repro.obs.trace import span as _span
from repro.query.syntax import ConjunctiveQuery


def _estimate(
    name: str,
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase | BIDDatabase,
    samples: int,
    rng: random.Random | np.random.Generator | None,
    batch_size: int | None,
) -> dict[Row, float]:
    """Per-answer estimates of *query*, traced as the span *name*."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    with _span(name, samples=samples) as sp:
        t0 = time.perf_counter()
        dnfs, probs = answer_lineages(query, db)
        block_key = db.block_of if isinstance(db, BIDDatabase) else None
        out = monte_carlo_answers(
            dnfs, probs, samples, rng,
            block_key=block_key, batch_size=batch_size,
        )
        elapsed = time.perf_counter() - t0
        sp.add("answers", len(out))
        if elapsed > 0:
            sp.add("samples_per_sec", round(samples / elapsed))
    return out


def mc_query_probability(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase | BIDDatabase,
    samples: int,
    rng: random.Random | np.random.Generator | None = None,
    *,
    batch_size: int | None = None,
) -> float:
    """Estimate ``Pr(q)`` by sampling *samples* worlds (MCDB-style).

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> est = mc_query_probability(parse_query("R(x)"), db, 20000,
    ...                            random.Random(0))
    >>> abs(est - 0.5) < 0.02
    True
    """
    return _estimate(
        "mc_query_probability", query.boolean_view(), db, samples, rng,
        batch_size,
    ).get((), 0.0)


def mc_answer_probabilities(
    query: ConjunctiveQuery,
    db: ProbabilisticDatabase | BIDDatabase,
    samples: int,
    rng: random.Random | np.random.Generator | None = None,
    *,
    batch_size: int | None = None,
) -> dict[Row, float]:
    """Per-answer probability estimates for a headed query; answers no
    sampled world returns are left out."""
    return _estimate(
        "mc_answer_probabilities", query, db, samples, rng, batch_size
    )
