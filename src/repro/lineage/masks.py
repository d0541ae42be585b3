"""Bitmask clause primitives shared by the DPLL recursions.

A positive DNF over variables ``0..n-1`` is a ``frozenset`` of Python ints,
one per clause, bit ``i`` set iff variable ``i`` occurs (masks wider than a
machine word are ordinary multi-limb ints). The exact solver
(:mod:`repro.lineage.exact`), the interval approximator
(:mod:`repro.lineage.approx_bounds`) and the trace compiler
(:func:`repro.circuit.compile.compile_dnf`) all decompose a formula with the
same four steps — :func:`split`, :func:`common`, :func:`branch_bit`,
:func:`cofactors` — and every choice is a function of the clause *set* only
(ties go to the lowest variable id), so the three traces coincide and none
depends on set iteration order or the string hash seed. The block solver of
:mod:`repro.bid.inference` builds its block-wise steps from the same pieces.

The empty clause is mask ``0``: a formula is true iff ``0 in formula``.
"""

from __future__ import annotations

import heapq
import sys
from contextlib import contextmanager
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

#: A positive DNF: one int mask per clause.
Formula = frozenset[int]


def encode(
    clauses: Iterable[Iterable[Hashable]],
    index: Mapping[Hashable, int],
    probs: Sequence[float] | None = None,
) -> Formula:
    """Mask formula of *clauses* under the variable numbering *index*.

    With *probs* (per id), certain variables (``p >= 1``) drop out of their
    clauses and a clause holding an impossible one (``p == 0``) vanishes.

    >>> sorted(encode([{"a", "b"}, {"b", "c"}], {"a": 0, "b": 1, "c": 2}))
    [3, 6]
    >>> sorted(encode([{"a", "b"}, {"c"}], {"a": 0, "b": 1, "c": 2}, [1., .5, 0.]))
    [2]
    """
    out = set()
    for clause in clauses:
        mask = 0
        for v in clause:
            i = index[v]
            if probs is not None:
                if probs[i] == 0.0:
                    break
                if probs[i] >= 1.0:
                    continue
            mask |= 1 << i
        else:
            out.add(mask)
    return frozenset(out)


def bits(mask: int) -> list[int]:
    """Variable ids of the set bits of *mask*, ascending.

    >>> bits(0b100101)
    [0, 2, 5]
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def weight(mask: int, probs: Sequence[float]) -> float:
    """Probability that every variable of *mask* is true."""
    w = 1.0
    for v in bits(mask):
        w *= probs[v]
    return w


def common(formula: Formula) -> int:
    """Mask of the variables occurring in every clause (``&``-reduce)."""
    it = iter(formula)
    mask = next(it)
    for c in it:
        mask &= c
        if not mask:
            break
    return mask


def split(formula: Formula) -> list[Formula]:
    """Variable-disjoint components, ordered by their lowest variable id.

    Each clause is merged into the groups whose variable mask it meets
    (one ``&`` per group open at that moment — residual lineage has a
    handful); a connected formula is returned as is.

    >>> [sorted(g) for g in split(frozenset({0b0011, 0b0110, 0b1000}))]
    [[3, 6], [8]]
    """
    masks: list[int] = []  # variable mask per group; 0 once merged away
    groups: list[list[int]] = []
    seen = 0
    for c in formula:
        old = c & seen
        seen |= c
        if not old:
            masks.append(c)
            groups.append([c])
            continue
        home = -1
        for i, m in enumerate(masks):
            if m & old:
                old &= ~m
                if home < 0:
                    home = i
                    masks[i] = m | c
                    groups[i].append(c)
                else:
                    masks[home] |= m
                    groups[home] += groups[i]
                    masks[i] = 0
                if not old:
                    break
    live = [i for i, m in enumerate(masks) if m]
    if len(live) == 1:
        return [formula]
    live.sort(key=lambda i: masks[i] & -masks[i])
    return [frozenset(groups[i]) for i in live]


def branch_bit(formula: Formula) -> int:
    """One-bit mask of the most frequent variable, lowest id on ties.

    Occurrences are counted in bit-sliced vertical counters: plane ``k``
    holds bit ``k`` of every variable's count, and adding a clause is a
    ripple-carry over whole masks. The arg-max is read from the top plane
    down, keeping the candidates whose count has the bit set whenever any do.

    >>> branch_bit(frozenset({0b011, 0b110, 0b100}))   # var 1 and 2 tie at 2
    2
    """
    planes: list[int] = []
    for carry in formula:
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    best = -1  # all variables
    for plane in reversed(planes):
        best = best & plane or best
    return best & -best


def cofactors(formula: Formula, bit: int) -> tuple[Formula, Formula]:
    """``(F[x=1], F[x=0])`` for the variable whose one-bit mask is *bit*."""
    keep = ~bit
    return (
        frozenset([c & keep for c in formula]),
        frozenset([c for c in formula if not c & bit]),
    )


def shared_variables(formula: Iterable[int]) -> int:
    """Mask of the variables occurring in two or more clauses.

    >>> bin(shared_variables([0b0011, 0b0110, 0b1000]))
    '0b10'
    """
    once = twice = 0
    for c in formula:
        twice |= once & c
        once |= c
    return twice


def min_degree_order(
    scopes: Iterable[int], limit: int
) -> tuple[list[tuple[int, int]] | None, int]:
    """Greedy min-degree elimination order over the variables of *scopes*.

    Two variables are adjacent when some scope (a mask) holds both; each
    step eliminates the variable of least degree, lowest id on ties (a lazy
    heap keyed ``(degree, id)``), and joins its neighbours into a clique.
    Returns ``(order, width)``: *order* lists ``(variable, neighbour mask at
    elimination)`` pairs and *width* is the largest neighbour count. The
    moment the *minimum* degree exceeds *limit* the pass is abandoned and
    ``(None, that degree)`` comes back — the order is over the limit by at
    least that much, and nothing more is computed. A function of the scope
    set alone.

    >>> min_degree_order([0b011, 0b110], 2)    # a path 0 - 1 - 2
    ([(0, 2), (1, 4), (2, 0)], 1)
    >>> min_degree_order([0b111], 1)           # a triangle has width 2
    (None, 2)
    """
    adj: dict[int, int] = {}
    for s in scopes:
        for v in bits(s):
            adj[v] = adj.get(v, 0) | s
    heap = []
    for v, mask in adj.items():
        adj[v] = mask = mask & ~(1 << v)
        heap.append((mask.bit_count(), v))
    heapq.heapify(heap)
    order: list[tuple[int, int]] = []
    width = 0
    while heap:
        degree, v = heapq.heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None or nbrs.bit_count() != degree:
            continue  # eliminated, or re-ranked by a fresher entry
        if degree > limit:
            return None, degree
        width = max(width, degree)
        del adj[v]
        order.append((v, nbrs))
        gone = ~(1 << v)
        for w in bits(nbrs):
            adj[w] = mask = (adj[w] | nbrs) & gone & ~(1 << w)
            heapq.heappush(heap, (mask.bit_count(), w))
    return order, width


@contextmanager
def deep_recursion(variables: int) -> Iterator[None]:
    """Raise the recursion limit for a DPLL descent over *variables*
    variables (a few frames each); the old limit returns on every exit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10_000 + 6 * variables))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
