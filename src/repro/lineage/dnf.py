"""Lineage DNFs (Definition 3.5).

The lineage of a Boolean conjunctive query on a database is the DNF obtained
by grounding: one clause per satisfying assignment, one Boolean variable per
database tuple. :func:`lineage_of_query` materialises it together with the
variable probability map; :func:`answer_lineages` does the same per answer for
queries with head variables (the "N Boolean queries" view of Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.db.database import ProbabilisticDatabase
from repro.db.schema import Row
from repro.query.grounding import all_groundings, groundings
from repro.query.syntax import ConjunctiveQuery, Constant


@dataclass(frozen=True, order=True)
class EventVar:
    """The Boolean event of one database tuple, ``(relation, row)``."""

    relation: str
    row: Row

    def __str__(self) -> str:
        return f"{self.relation}{self.row!r}"


class DNF:
    """A positive DNF over :class:`EventVar` variables.

    Clauses are frozensets of variables; the clause set is deduplicated
    (``C ∨ C = C``). The empty DNF is *false*; a DNF containing the empty
    clause is *true*.
    """

    __slots__ = ("clauses",)

    def __init__(self, clauses: Iterable[frozenset[EventVar]] = ()) -> None:
        self.clauses: frozenset[frozenset[EventVar]] = frozenset(
            frozenset(c) for c in clauses
        )

    def variables(self) -> set[EventVar]:
        """All variables mentioned by some clause."""
        out: set[EventVar] = set()
        for c in self.clauses:
            out |= c
        return out

    @property
    def is_false(self) -> bool:
        """No clause at all: the constant ``false``."""
        return not self.clauses

    @property
    def is_true(self) -> bool:
        """Contains the empty clause: the constant ``true``."""
        return frozenset() in self.clauses

    def __len__(self) -> int:
        return len(self.clauses)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DNF) and self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash(self.clauses)

    def evaluate(self, world: Mapping[EventVar, bool]) -> bool:
        """Truth value under a (total-enough) assignment of variables."""
        return any(all(world.get(v, False) for v in c) for c in self.clauses)

    def __repr__(self) -> str:
        if self.is_false:
            return "DNF(false)"
        if self.is_true:
            return "DNF(true)"
        parts = sorted(
            " ∧ ".join(sorted(map(str, c))) for c in self.clauses
        )
        return " ∨ ".join(f"({p})" for p in parts)


class EventVarInterner:
    """Hash-cons :class:`EventVar` objects to dense integer ids.

    The inference and sampling engines all work over integer variable ids;
    interning assigns each distinct variable one id (``0, 1, 2, ...`` in
    first-seen order) and keeps the reverse table, so clauses become rows of
    small ints that index straight into NumPy probability vectors or
    incidence matrices. One
    interner can be shared across the per-answer lineages of a multi-answer
    query, giving every engine the same id space.

    Examples
    --------
    >>> pool = EventVarInterner()
    >>> x, y = EventVar("R", (1,)), EventVar("R", (2,))
    >>> pool.intern(x), pool.intern(y), pool.intern(x)
    (0, 1, 0)
    >>> pool.var(1)
    EventVar(relation='R', row=(2,))
    >>> len(pool)
    2
    """

    __slots__ = ("_ids", "_vars")

    def __init__(self) -> None:
        self._ids: dict[EventVar, int] = {}
        self._vars: list[EventVar] = []

    def __len__(self) -> int:
        return len(self._vars)

    def intern(self, var: EventVar) -> int:
        """Dense id of *var*, assigning the next free id on first sight."""
        ident = self._ids.get(var)
        if ident is None:
            ident = len(self._vars)
            self._ids[var] = ident
            self._vars.append(var)
        return ident

    def var(self, ident: int) -> EventVar:
        """The variable behind a dense id."""
        return self._vars[ident]

    def id_of(self, var: EventVar) -> int:
        """Id of an already-interned variable (``KeyError`` otherwise)."""
        return self._ids[var]

    def variables(self) -> tuple[EventVar, ...]:
        """All interned variables, in id order."""
        return tuple(self._vars)

    def probability_vector(
        self, probs: Mapping[EventVar, float]
    ) -> list[float]:
        """Per-id probabilities for every interned variable, in id order."""
        return [float(probs[v]) for v in self._vars]


def lineage_of_query(
    query: ConjunctiveQuery, db: ProbabilisticDatabase
) -> tuple[DNF, dict[EventVar, float]]:
    """Lineage of a Boolean query plus the variable probability map.

    Grounding ranges over *all* tuples of the database (deterministic ones
    included — they become probability-1 variables, which the inference
    engines simplify away).

    Examples
    --------
    Example 3.6 of the paper: ``q = R(x,y), S(y,z)`` over the 2x2 complete
    relations has the 8-clause lineage ``∨ r_ij s_jk``:

    >>> from repro.db import ProbabilisticDatabase
    >>> from repro.query import parse_query
    >>> db = ProbabilisticDatabase()
    >>> rows = {(i, j): 0.5 for i in (1, 2) for j in (1, 2)}
    >>> _ = db.add_relation("R", ("A", "B"), rows)
    >>> _ = db.add_relation("S", ("B", "C"), rows)
    >>> f, probs = lineage_of_query(parse_query("R(x,y), S(y,z)"), db)
    >>> len(f)
    8
    """
    instance = db.deterministic_instance()
    clauses = []
    for ground in all_groundings(query.boolean_view(), instance):
        clauses.append(
            frozenset(EventVar(rel, row) for rel, row in ground.items())
        )
    dnf = DNF(clauses)
    probs = {v: db[v.relation].probability(v.row) for v in dnf.variables()}
    return dnf, probs


def answer_lineages(
    query: ConjunctiveQuery, db: ProbabilisticDatabase
) -> tuple[dict[Row, DNF], dict[EventVar, float]]:
    """Per-answer lineages for a query with head variables.

    Returns a map ``answer row -> DNF`` plus one shared probability map.
    """
    instance = db.deterministic_instance()
    by_answer: dict[Row, list[frozenset[EventVar]]] = {}
    for binding in groundings(query, instance):
        answer = tuple(binding[v] for v in query.head)
        clause = []
        for atom in query.atoms:
            row = tuple(
                t.value if isinstance(t, Constant) else binding[t]
                for t in atom.terms
            )
            clause.append(EventVar(atom.relation, row))
        by_answer.setdefault(answer, []).append(frozenset(clause))
    dnfs = {a: DNF(cs) for a, cs in by_answer.items()}
    probs: dict[EventVar, float] = {}
    for f in dnfs.values():
        for v in f.variables():
            if v not in probs:
                probs[v] = db[v.relation].probability(v.row)
    return dnfs, probs
