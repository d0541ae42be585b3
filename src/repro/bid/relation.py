"""BID relations: blocks of mutually exclusive tuples.

A BID relation has a schema split into *key* attributes and *value*
attributes. Tuples sharing a key form a block; within a block at most one
tuple exists in a possible world, and block probabilities must sum to at
most 1 (the remainder is the probability that the block contributes no
tuple). Blocks are mutually independent.

Tuple-independence is the special case where the key is the whole schema
(every block a singleton).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, Mapping, Sequence

from repro.db.schema import RelationSchema, Row
from repro.errors import CapacityError, ProbabilityError, SchemaError

_SUM_TOLERANCE = 1e-9


class BIDRelation:
    """A block-independent-disjoint probabilistic relation.

    Parameters
    ----------
    schema:
        Relation schema.
    key:
        The block-key attributes (a subset of the schema). Tuples agreeing on
        the key are mutually exclusive alternatives.

    Examples
    --------
    A person has exactly one (uncertain) city:

    >>> rel = BIDRelation.create(
    ...     "Lives", ("person", "city"), ("person",),
    ...     {("ann", "paris"): 0.7, ("ann", "tokyo"): 0.3,
    ...      ("bob", "paris"): 0.5})
    >>> sorted(rel.block(("ann",)))
    [('ann', 'paris'), ('ann', 'tokyo')]
    >>> rel.none_probability(("bob",))
    0.5
    """

    __slots__ = ("schema", "key", "_key_idx", "_blocks")

    def __init__(
        self,
        schema: RelationSchema,
        key: Sequence[str],
        rows: Mapping[Row, float] | Iterable[tuple[Row, float]] | None = None,
    ) -> None:
        self.schema = schema
        self.key = tuple(key)
        self._key_idx = schema.indices_of(self.key)
        self._blocks: Dict[Row, Dict[Row, float]] = {}
        if rows is not None:
            items = rows.items() if isinstance(rows, Mapping) else rows
            for row, p in items:
                self.add(row, p)

    @classmethod
    def create(
        cls,
        name: str,
        attributes: Sequence[str],
        key: Sequence[str],
        rows: Mapping[Row, float] | None = None,
    ) -> "BIDRelation":
        """Build a BID relation from name, attributes, key, and rows."""
        return cls(RelationSchema(name, tuple(attributes)), key, rows)

    @property
    def name(self) -> str:
        """The relation name."""
        return self.schema.name

    def block_key(self, row: Row) -> Row:
        """The block key of *row*."""
        return tuple(row[i] for i in self._key_idx)

    def add(self, row: Iterable, probability: float) -> None:
        """Insert an alternative; validates the block's probability budget."""
        r = self.schema.check_row(row)
        p = float(probability)
        if not 0.0 < p <= 1.0:
            raise ProbabilityError(
                f"tuple {r!r} probability {p} outside (0, 1]"
            )
        block = self._blocks.setdefault(self.block_key(r), {})
        if r in block:
            raise SchemaError(f"duplicate tuple {r!r} in {self.name}")
        if sum(block.values()) + p > 1.0 + _SUM_TOLERANCE:
            raise ProbabilityError(
                f"block {self.block_key(r)!r} of {self.name} exceeds total "
                f"probability 1 with tuple {r!r}"
            )
        block[r] = p

    # --------------------------------------------------------------- access
    def blocks(self) -> Iterator[tuple[Row, dict[Row, float]]]:
        """Iterate over ``(key, {row: probability})`` blocks."""
        return iter(self._blocks.items())

    def block(self, key: Row) -> dict[Row, float]:
        """The alternatives of one block (empty dict when absent)."""
        return dict(self._blocks.get(tuple(key), {}))

    def none_probability(self, key: Row) -> float:
        """Probability the block contributes no tuple."""
        return max(0.0, 1.0 - sum(self._blocks.get(tuple(key), {}).values()))

    def rows(self) -> list[Row]:
        """All alternatives across all blocks."""
        return [r for block in self._blocks.values() for r in block]

    def probability(self, row: Row) -> float:
        """Marginal probability of one alternative."""
        r = tuple(row)
        return self._blocks.get(self.block_key(r), {}).get(r, 0.0)

    def __len__(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def is_tuple_independent(self) -> bool:
        """True when every block is a singleton (plain independence)."""
        return all(len(b) == 1 for b in self._blocks.values())

    def __repr__(self) -> str:
        return (
            f"<BIDRelation {self.schema} key={self.key} "
            f"{len(self._blocks)} blocks, {len(self)} alternatives>"
        )


class BIDDatabase:
    """A collection of independent BID relations."""

    def __init__(self, relations: Iterable[BIDRelation] = ()) -> None:
        self._relations: Dict[str, BIDRelation] = {}
        for rel in relations:
            self.attach(rel)

    def attach(self, relation: BIDRelation) -> BIDRelation:
        """Register a relation under its schema name."""
        if relation.name in self._relations:
            raise SchemaError(f"relation {relation.name} already exists")
        self._relations[relation.name] = relation
        return relation

    def add_relation(
        self,
        name: str,
        attributes: Sequence[str],
        key: Sequence[str],
        rows: Mapping[Row, float] | None = None,
    ) -> BIDRelation:
        """Create, register, and return a new BID relation."""
        return self.attach(BIDRelation.create(name, attributes, key, rows))

    def __getitem__(self, name: str) -> BIDRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __iter__(self) -> Iterator[BIDRelation]:
        return iter(self._relations.values())

    def names(self) -> list[str]:
        """Registered relation names."""
        return list(self._relations)

    def deterministic_instance(self) -> dict[str, set[Row]]:
        """All alternatives of all relations (for lineage grounding)."""
        return {rel.name: set(rel.rows()) for rel in self}

    def block_of(self, var) -> tuple[str, Row]:
        """The block of a lineage variable's alternative: ``(relation, key)``.

        Variables sharing it are mutually exclusive.
        """
        return var.relation, self[var.relation].block_key(var.row)

    # ----------------------------------------------------- possible worlds
    def enumerate_worlds(
        self, max_blocks: int = 14
    ) -> Iterator[tuple[dict[str, set[Row]], float]]:
        """Every possible world with its probability.

        A world picks, independently per block, one alternative or none.
        The count is ``Π (|block| + 1)`` over all blocks (certain blocks —
        a single alternative of probability 1 — don't branch).
        """
        choices: list[tuple[str, list[tuple[Row | None, float]]]] = []
        for rel in self:
            for key, block in rel.blocks():
                options: list[tuple[Row | None, float]] = [
                    (row, p) for row, p in block.items()
                ]
                none_p = rel.none_probability(key)
                if none_p > 0.0:
                    options.append((None, none_p))
                choices.append((rel.name, options))
        branching = [c for c in choices if len(c[1]) > 1]
        if len(branching) > max_blocks:
            raise CapacityError(
                f"{len(branching)} branching blocks exceed the enumeration "
                f"limit of {max_blocks}"
            )
        for combo in itertools.product(*(options for _, options in choices)):
            world: dict[str, set[Row]] = {name: set() for name in self.names()}
            weight = 1.0
            for (name, _), (row, p) in zip(choices, combo):
                weight *= p
                if row is not None:
                    world[name].add(row)
            if weight > 0.0:
                yield world, weight

    def brute_force_probability(self, satisfies) -> float:
        """Ground truth by world enumeration."""
        return sum(w for world, w in self.enumerate_worlds() if satisfies(world))
