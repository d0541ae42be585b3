"""Probabilistic relations.

A *tuple-independent* probabilistic relation (Section 2, Eq. 1) is a finite
set of tuples, each present independently with its own marginal probability.
:class:`ProbabilisticRelation` stores that representation and exposes the
bookkeeping the paper's algorithms need: which tuples are uncertain
(``0 < p < 1``), which are deterministic (``p == 1``), and per-value indexes
used by the data-safety checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence

from repro.db.schema import RelationSchema, Row
from repro.errors import ProbabilityError, SchemaError


class ProbabilisticRelation:
    """A finite relation with an existence probability per tuple.

    Tuples with probability 0 are rejected at insertion: a tuple that can never
    appear carries no information and would needlessly enlarge offending-tuple
    sets. Probability 1 marks a *deterministic* tuple; per Proposition 3.2 these
    never offend a join.

    Parameters
    ----------
    schema:
        The relation's :class:`~repro.db.schema.RelationSchema`.
    rows:
        Optional initial mapping or iterable of ``(row, probability)`` pairs.

    Examples
    --------
    >>> r = ProbabilisticRelation.create("R", ("A",), {(1,): 0.5, (2,): 1.0})
    >>> r.probability((1,))
    0.5
    >>> sorted(r.uncertain_rows())
    [(1,)]
    """

    __slots__ = ("schema", "_rows", "_hooks", "_version")

    def __init__(
        self,
        schema: RelationSchema,
        rows: Mapping[Row, float] | Iterable[tuple[Row, float]] | None = None,
    ) -> None:
        self.schema = schema
        self._rows: Dict[Row, float] = {}
        self._hooks: list = []
        self._version = 0
        if rows is not None:
            items = rows.items() if isinstance(rows, Mapping) else rows
            for row, p in items:
                self.add(row, p)

    @classmethod
    def create(
        cls,
        name: str,
        attributes: Sequence[str],
        rows: Mapping[Row, float] | Iterable[tuple[Row, float]] | None = None,
    ) -> "ProbabilisticRelation":
        """Build a relation from a name, attribute list, and row/probability pairs."""
        return cls(RelationSchema(name, tuple(attributes)), rows)

    # ------------------------------------------------------------------ basics
    @property
    def name(self) -> str:
        """The relation name from the schema."""
        return self.schema.name

    def add(self, row: Iterable, probability: float) -> None:
        """Insert *row* with the given existence probability.

        Raises
        ------
        ProbabilityError
            If the probability is not in ``(0, 1]``.
        SchemaError
            If the row arity does not match the schema, or the row is already
            present (tuple-independence forbids duplicate tuples).
        """
        r = self.schema.check_row(row)
        p = float(probability)
        if not 0.0 < p <= 1.0:
            raise ProbabilityError(
                f"tuple {r!r} in {self.name} has probability {p}, expected (0, 1]"
            )
        if r in self._rows:
            raise SchemaError(f"duplicate tuple {r!r} in relation {self.name}")
        self._rows[r] = p
        self._version += 1
        for hook in self._hooks:
            hook(self.name)

    def set_probability(self, row: Iterable, probability: float) -> None:
        """Update the existence probability of an *existing* row.

        Raises
        ------
        ProbabilityError
            If the probability is not in ``(0, 1]``.
        SchemaError
            If the row is not present in the relation.
        """
        r = self.schema.check_row(row)
        p = float(probability)
        if not 0.0 < p <= 1.0:
            raise ProbabilityError(
                f"tuple {r!r} in {self.name} has probability {p}, expected (0, 1]"
            )
        if r not in self._rows:
            raise SchemaError(f"no tuple {r!r} in relation {self.name}")
        self._rows[r] = p
        self._version += 1
        for hook in self._hooks:
            hook(self.name)

    def remove(self, row: Iterable) -> None:
        """Delete an existing row from the relation.

        Raises
        ------
        SchemaError
            If the row is not present in the relation.
        """
        r = self.schema.check_row(row)
        if r not in self._rows:
            raise SchemaError(f"no tuple {r!r} in relation {self.name}")
        del self._rows[r]
        self._version += 1
        for hook in self._hooks:
            hook(self.name)

    def subscribe(self, hook) -> None:
        """Register a mutation hook, called as ``hook(relation_name)`` after
        every successful :meth:`add`, :meth:`set_probability`, or
        :meth:`remove`.

        Caches of artifacts derived from the instance (compiled lineage
        circuits, columnar base encodings) subscribe so a mutation flushes
        them instead of silently serving stale answers.
        """
        self._hooks.append(hook)

    @property
    def version(self) -> int:
        """Mutation counter of this relation object, bumped by every
        :meth:`add`, :meth:`set_probability` and :meth:`remove`.

        ``(relation object, version)`` identifies the contents exactly, so a
        cache of derived arrays keyed on that pair cannot serve a stale
        encoding — not even after a remove + add that keeps ``len`` fixed.
        """
        return self._version

    def probability(self, row: Row) -> float:
        """Marginal probability of *row*; 0.0 if the tuple is not in the relation."""
        return self._rows.get(tuple(row), 0.0)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def items(self) -> Iterator[tuple[Row, float]]:
        """Iterate over ``(row, probability)`` pairs."""
        return iter(self._rows.items())

    def rows(self) -> list[Row]:
        """All rows, in insertion order."""
        return list(self._rows)

    # ------------------------------------------------------- derived views
    def uncertain_rows(self) -> list[Row]:
        """Rows with probability strictly below 1 (the *non-deterministic* tuples)."""
        return [r for r, p in self._rows.items() if p < 1.0]

    def deterministic_rows(self) -> list[Row]:
        """Rows with probability exactly 1."""
        return [r for r, p in self._rows.items() if p == 1.0]

    def deterministic_fraction(self) -> float:
        """Fraction of rows with probability 1 (the paper's *FDT* complement)."""
        if not self._rows:
            return 1.0
        return len(self.deterministic_rows()) / len(self._rows)

    def group_by(self, attributes: Sequence[str]) -> dict[Row, list[Row]]:
        """Group rows by their value on *attributes*.

        Returns a mapping from the projected key to the full rows carrying it.
        Used by the data-safety checks (Proposition 3.2) and by the join
        operators.
        """
        idx = self.schema.indices_of(attributes)
        groups: dict[Row, list[Row]] = {}
        for r in self._rows:
            key = tuple(r[i] for i in idx)
            groups.setdefault(key, []).append(r)
        return groups

    def satisfies_fd(self, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """Check the functional dependency ``lhs -> rhs`` on this instance."""
        lidx = self.schema.indices_of(lhs)
        ridx = self.schema.indices_of(rhs)
        seen: dict[Row, Row] = {}
        for r in self._rows:
            key = tuple(r[i] for i in lidx)
            val = tuple(r[i] for i in ridx)
            if seen.setdefault(key, val) != val:
                return False
        return True

    def copy(self) -> "ProbabilisticRelation":
        """Shallow copy (rows and probabilities are immutable values)."""
        out = ProbabilisticRelation(self.schema)
        out._rows = dict(self._rows)
        return out

    def __repr__(self) -> str:
        return f"<ProbabilisticRelation {self.schema} with {len(self)} tuples>"
