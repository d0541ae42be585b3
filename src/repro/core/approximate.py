"""Approximate inference on And-Or networks.

Section 7 of the paper: "these approximation strategies can be used on the
And-Or Networks as well. Our method basically reduces the original problem
into an inference problem of smaller scale. This means it takes less time to
sample the data and more samples mean better approximation." This module
provides that reduction's payoff:

* :func:`forward_sample_marginal` — direct Monte-Carlo on the network:
  sample every leaf by its prior and every noisy edge by its probability,
  propagate through the gates, count. Unbiased; cost linear in the relevant
  sub-network per sample.
* :func:`karp_luby_marginal` — compile the node's partial-lineage DNF
  (strictly smaller than the full lineage) and run the Karp-Luby FPRAS,
  giving relative-error guarantees even for tiny probabilities.
* :func:`hoeffding_samples` / :func:`karp_luby_samples` — sample-size
  calculators for (ε, δ) guarantees.

Everything takes an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import math
import random

from repro.core.compile import partial_lineage_dnf
from repro.core.network import EPSILON, AndOrNetwork, NodeKind
from repro.lineage.sampling import karp_luby


def forward_sample_once(
    net: AndOrNetwork, nodes: list[int], rng: random.Random
) -> dict[int, int]:
    """Sample one joint assignment of *nodes* (must be ancestor-closed,
    topologically sorted ascending — node ids are topological by construction)."""
    values: dict[int, int] = {}
    for v in nodes:
        kind = net.kind(v)
        if kind is NodeKind.LEAF:
            p = 1.0 if v == EPSILON else net.leaf_probability(v)
            values[v] = 1 if rng.random() < p else 0
            continue
        if kind is NodeKind.OR:
            fired = 0
            for w, q in net.parents(v):
                if values[w] and rng.random() < q:
                    fired = 1
                    break
            values[v] = fired
        else:  # AND
            fired = 1
            for w, q in net.parents(v):
                if not values[w] or rng.random() >= q:
                    fired = 0
                    break
            values[v] = fired
    return values


def forward_sample_marginal(
    net: AndOrNetwork,
    node: int,
    samples: int,
    rng: random.Random | None = None,
) -> float:
    """Estimate ``Pr(node = 1)`` by forward sampling.

    Examples
    --------
    >>> net = AndOrNetwork()
    >>> u = net.add_leaf(0.3)
    >>> v = net.add_leaf(0.8)
    >>> w = net.add_gate(NodeKind.OR, [(u, 0.5), (v, 0.5)])
    >>> est = forward_sample_marginal(net, w, 50000, random.Random(0))
    >>> abs(est - 0.49) < 0.01
    True
    """
    return forward_sample_marginals(net, [node], samples, rng)[node]


def forward_sample_marginals(
    net: AndOrNetwork,
    nodes: list[int],
    samples: int,
    rng: random.Random | None = None,
) -> dict[int, float]:
    """Joint forward sampling: one pass estimates every requested marginal."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = rng or random.Random()
    targets = [v for v in dict.fromkeys(nodes) if v != EPSILON]
    relevant = sorted(net.ancestors(targets))
    hits = {v: 0 for v in targets}
    for _ in range(samples if targets else 0):
        values = forward_sample_once(net, relevant, rng)
        for v in targets:
            hits[v] += values[v]
    out = {v: hits[v] / samples for v in targets}
    for v in nodes:
        if v == EPSILON:
            out[EPSILON] = 1.0
    return out


def karp_luby_marginal(
    net: AndOrNetwork,
    node: int,
    samples: int,
    rng: random.Random | None = None,
) -> float:
    """Karp-Luby estimation on the node's partial-lineage DNF.

    Inherits the FPRAS relative-error behaviour; preferable to forward
    sampling when ``Pr(node=1)`` may be small.
    """
    if node == EPSILON:
        return 1.0
    dnf, probs = partial_lineage_dnf(net, node)
    return karp_luby(dnf, probs, samples, rng)


def hoeffding_samples(epsilon: float, delta: float) -> int:
    """Samples for additive error ``epsilon`` with confidence ``1 - delta``.

    By Hoeffding's inequality: ``n ≥ ln(2/δ) / (2 ε²)``.

    Examples
    --------
    >>> hoeffding_samples(0.01, 0.05)
    18445
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def karp_luby_samples(epsilon: float, delta: float, clauses: int) -> int:
    """Samples for relative error ``epsilon`` with confidence ``1 - delta``.

    The classical Karp-Luby-Madras bound ``n ≥ 4 m ln(2/δ) / ε²`` for a DNF
    of ``m`` clauses (the estimator's value is within a factor ``m`` of the
    answer, bounding its variance).
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if clauses <= 0:
        raise ValueError("clauses must be positive")
    return math.ceil(4.0 * clauses * math.log(2.0 / delta) / (epsilon * epsilon))
