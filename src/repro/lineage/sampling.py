"""Monte-Carlo estimation of DNF probability.

Two estimators, used as approximate baselines (Section 7 mentions sampling
[21, 13] as the standard fallback when exact evaluation is infeasible):

* :func:`naive_monte_carlo` — sample full worlds, count satisfying ones.
  Unbiased, but needs many samples when ``Pr(F)`` is small.
  :func:`monte_carlo_answers` is the same estimator over many DNFs at once
  (every sampled world decides every DNF); :mod:`repro.mc` runs it on a
  query's grounded lineage.
* :func:`karp_luby` — the classic FPRAS for DNF counting: sample a clause
  with probability proportional to its weight, then a world conditioned on
  that clause being true, and estimate the union via the first-satisfied-
  clause indicator. Relative-error guarantees independent of ``Pr(F)``.

Both draw worlds in NumPy blocks, through one world-draw step and one
hit-count kernel:

* :class:`WorldLayout` draws a ``(batch, n_vars)`` boolean world matrix:
  one uniform ``u`` per block and world, and a variable holds when ``u``
  falls in its slice ``[lo, hi)`` of the block's cumulative probability.
  A tuple-independent variable is a singleton block, whose test is
  ``u < p``; the alternatives of a BID block get consecutive slices of the
  uniform drawn for the block's first alternative, so at most one of them
  holds, and none does when ``u`` lies past the last slice. Alternatives
  the lineage never mentions belong to that "none" remainder.
* :func:`_satisfied` decides every clause for a block of worlds with one
  matrix product against the clause-incidence matrix. The naive estimator
  takes an ``any`` over each DNF's clause rows, Karp-Luby an ``argmax`` for
  the first satisfied clause.

Generators: a ``numpy.random.Generator`` is used directly; a
``random.Random`` seeds a NumPy generator from its stream, so runs
reproduce either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.errors import InferenceError
from repro.lineage.dnf import DNF, EventVar, EventVarInterner

#: Soft cap on world-matrix cells per batch; batches shrink as formulas grow
#: so peak memory stays flat while throughput stays matrix-shaped.
_BATCH_CELL_BUDGET = 4_000_000

_K = TypeVar("_K")


def numpy_generator(
    rng: random.Random | np.random.Generator | None,
) -> np.random.Generator:
    """A NumPy generator matching *rng*.

    ``numpy.random.Generator`` instances pass through; a ``random.Random``
    seeds a fresh generator from its stream (deterministic given the
    Random's state); ``None`` gives an OS-seeded generator.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    return np.random.default_rng(rng.getrandbits(128))


@dataclass(frozen=True)
class WorldLayout:
    """Where each variable's slice ``[lo, hi)`` of its block's unit interval
    lies.

    A block's first variable has ``lo = 0`` and keeps its own uniform column;
    every later alternative (a *follower*) reads its block's first column
    (its *leader*) and carries its own ``lo``. Tuple-independent variables
    have no followers."""

    hi: np.ndarray
    follower: np.ndarray
    leader: np.ndarray
    follower_lo: np.ndarray

    @classmethod
    def of(
        cls, p: np.ndarray, block_keys: Sequence[Hashable] | None = None
    ) -> "WorldLayout":
        """Layout of variables with probabilities *p*; ``block_keys[i]``
        names variable ``i``'s block, and ``None`` makes every variable its
        own block (tuple-independent)."""
        if block_keys is None:
            block_keys = range(p.size)
        first: dict[Hashable, int] = {}
        ends: dict[Hashable, float] = {}
        hi = np.empty_like(p)
        follower: list[int] = []
        leader: list[int] = []
        follower_lo: list[float] = []
        for i, key in enumerate(block_keys):
            lo = ends.get(key, 0.0)
            j = first.setdefault(key, i)
            if j != i:
                follower.append(i)
                leader.append(j)
                follower_lo.append(lo)
            hi[i] = ends[key] = lo + p[i]
        return cls(
            hi,
            np.array(follower, dtype=np.intp),
            np.array(leader, dtype=np.intp),
            np.array(follower_lo, dtype=np.float64),
        )

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """``(n, n_vars)`` boolean matrix of *n* sampled worlds.

        One uniform column per variable is drawn, so a tuple-independent
        world is ``u < p`` on the generator's stream in variable order; a
        follower's own column is overwritten by its leader's and left unused.
        """
        u = gen.random((n, self.hi.size))
        u[:, self.follower] = u[:, self.leader]
        worlds = u < self.hi
        worlds[:, self.follower] &= self.follower_lo <= u[:, self.follower]
        return worlds


def _batches(samples: int, width: int, batch_size: int | None) -> Iterator[int]:
    """Yield per-batch sample counts summing to *samples*."""
    if batch_size is None:
        batch_size = max(256, _BATCH_CELL_BUDGET // max(width, 1))
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    remaining = samples
    while remaining > 0:
        n = min(batch_size, remaining)
        yield n
        remaining -= n


def _incidence(
    clauses: list[frozenset[int]], n_vars: int
) -> tuple[np.ndarray, np.ndarray]:
    """Clause-incidence matrix (float32 for the matmul) and clause sizes."""
    inc = np.zeros((len(clauses), n_vars), dtype=np.float32)
    for row, clause in enumerate(clauses):
        inc[row, list(clause)] = 1.0
    sizes = inc.sum(axis=1)
    return inc, sizes


def _satisfied(
    worlds: np.ndarray, inc: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """``(n, n_clauses)``: which clauses each sampled world satisfies."""
    return (worlds.astype(np.float32) @ inc.T) >= sizes


def _canonical_clauses(dnf: DNF) -> list[frozenset[EventVar]]:
    """The clauses in an order that does not depend on the hash seed."""
    return sorted(dnf.clauses, key=lambda c: sorted(map(str, c)))


def _clause_weights(
    clauses: list[frozenset[EventVar]], probs: Mapping[EventVar, float]
) -> list[float]:
    """``Pr(clause)`` per clause, multiplied in sorted variable order so the
    rounding (and hence the weight's last bits) does not depend on the
    process's hash seed."""
    weights = []
    for c in clauses:
        w = 1.0
        for v in sorted(c):
            w *= probs[v]
        weights.append(w)
    return weights


def union_weight(dnf: DNF, probs: Mapping[EventVar, float]) -> float:
    """Karp-Luby's union weight ``S = Σ_i Pr(clause_i)``.

    Summed over the canonical clause and variable order :func:`karp_luby`
    samples in, so its last bits do not depend on the process's hash seed.

    >>> from repro.lineage.dnf import DNF, EventVar
    >>> a, b = EventVar("R", (1,)), EventVar("R", (2,))
    >>> union_weight(DNF([frozenset({a}), frozenset({a, b})]), {a: 0.5, b: 0.5})
    0.75
    """
    return sum(_clause_weights(_canonical_clauses(dnf), probs))


def _interner(variables) -> EventVarInterner:
    """Dense ids for *variables* in sorted order (hash-seed independent)."""
    interner = EventVarInterner()
    for v in sorted(variables):
        interner.intern(v)
    return interner


def monte_carlo_answers(
    dnfs: Mapping[_K, DNF],
    probs: Mapping[EventVar, float],
    samples: int,
    rng: random.Random | np.random.Generator | None = None,
    *,
    block_key: Callable[[EventVar], Hashable] | None = None,
    batch_size: int | None = None,
) -> dict[_K, float]:
    """Naive Monte-Carlo estimates of several DNFs from one world stream.

    Each block of worlds is drawn once and decides every DNF: one
    incidence-matrix product over all clause rows, then an ``any`` per DNF
    over its own rows. *block_key* maps a variable to its BID block (see
    :class:`WorldLayout`); ``None`` reads the variables as independent. DNFs
    that no sampled world satisfies are left out of the result.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not dnfs:
        return {}
    interner = _interner(set().union(*(f.variables() for f in dnfs.values())))
    clause_rows: list[frozenset[int]] = []
    spans: list[tuple[_K, int, int]] = []
    for key, dnf in dnfs.items():
        start = len(clause_rows)
        clause_rows.extend(
            frozenset(interner.id_of(v) for v in c) for c in dnf.clauses
        )
        spans.append((key, start, len(clause_rows)))
    p = np.asarray(interner.probability_vector(probs), dtype=np.float64)
    layout = WorldLayout.of(
        p,
        None if block_key is None
        else [block_key(v) for v in interner.variables()],
    )
    inc, sizes = _incidence(clause_rows, p.size)
    gen = numpy_generator(rng)
    counts = {key: 0 for key, _, _ in spans}
    for n in _batches(samples, p.size, batch_size):
        satisfied = _satisfied(layout.draw(gen, n), inc, sizes)
        for key, start, stop in spans:
            counts[key] += int(np.any(satisfied[:, start:stop], axis=1).sum())
    return {key: count / samples for key, count in counts.items() if count}


def naive_monte_carlo(
    dnf: DNF,
    probs: Mapping[EventVar, float],
    samples: int,
    rng: random.Random | np.random.Generator | None = None,
    *,
    batch_size: int | None = None,
) -> float:
    """Estimate ``Pr(dnf)`` by sampling *samples* independent worlds."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    if dnf.is_true:
        return 1.0
    if dnf.is_false:
        return 0.0
    return monte_carlo_answers(
        {(): dnf}, probs, samples, rng, batch_size=batch_size
    ).get((), 0.0)


def karp_luby(
    dnf: DNF,
    probs: Mapping[EventVar, float],
    samples: int,
    rng: random.Random | np.random.Generator | None = None,
    *,
    batch_size: int | None = None,
) -> float:
    """Karp-Luby estimator for the probability of a DNF union.

    Let ``w_i = Pr(clause_i)`` and ``S = Σ w_i``. Repeatedly sample a clause
    ``i`` with probability ``w_i / S`` and a world conditioned on clause ``i``
    holding; the indicator that ``i`` is the *first* satisfied clause, scaled
    by ``S``, is an unbiased estimator of ``Pr(∪ clauses)`` with variance
    bounded independently of how small the answer is.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if dnf.is_true:
        return 1.0
    if dnf.is_false:
        return 0.0
    interner = _interner(dnf.variables())
    clauses = [
        frozenset(interner.id_of(v) for v in c)
        for c in _canonical_clauses(dnf)
    ]
    p = np.asarray(interner.probability_vector(probs), dtype=np.float64)
    n_vars = p.size
    inc, sizes = _incidence(clauses, n_vars)
    weights = np.array(
        [float(np.prod(p[sorted(c)])) for c in clauses], dtype=np.float64
    )
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    if total == 0.0:
        return 0.0

    # Ragged clause → padded index matrix; the pad column n_vars is a scratch
    # variable so forcing it True is a no-op on the real world.
    max_len = max(len(c) for c in clauses)
    padded = np.full((len(clauses), max_len), n_vars, dtype=np.intp)
    for row, clause in enumerate(clauses):
        members = sorted(clause)
        padded[row, : len(members)] = members
    layout = WorldLayout.of(np.append(p, 1.0))

    gen = numpy_generator(rng)
    hits = 0
    for n in _batches(samples, n_vars, batch_size):
        r = gen.random(n) * total
        chosen = np.searchsorted(cumulative, r, side="left")
        worlds = layout.draw(gen, n)
        worlds[np.arange(n)[:, None], padded[chosen]] = True
        satisfied = _satisfied(worlds[:, :n_vars], inc, sizes)
        if not bool(satisfied[np.arange(n), chosen].all()):
            raise InferenceError("sampled world does not satisfy its own clause")
        first = np.argmax(satisfied, axis=1)
        hits += int((first == chosen).sum())
    return total * hits / samples
