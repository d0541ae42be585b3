"""pL-relations: relations with partial lineage (Definition 5.2).

A pL-relation ``(R, p, l, N)`` attaches to every tuple a probability ``p(t)``
and a lineage node ``l(t)`` of an And-Or network ``N``. Its semantics
(Eq. 5 of the paper) is a distribution over subsets ``ω ⊆ R``::

    ρ(ω) = Σ_z  N(z) · Π_{t∈ω} z_{l(t)} p(t) · Π_{t∉ω} (1 - z_{l(t)} p(t))

Intuition: each tuple exists iff its lineage node is true *and* an anonymous
independent coin of bias ``p(t)`` comes up heads. Tuples with ``l(t) = ε``
(the always-true node) are purely extensional; an independent probabilistic
relation is a pL-relation with ``l ≡ ε`` (Example 5.3).

The class below stores one pL-relation over a *shared* network: all
intermediate relations produced while evaluating one plan point into the same
growing :class:`~repro.core.network.AndOrNetwork`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator

from repro.core.network import EPSILON, AndOrNetwork
from repro.db.schema import Row
from repro.errors import CapacityError, ProbabilityError, SchemaError


class PLRelation:
    """A relation with partial lineage over a shared And-Or network.

    Rows are unique (duplicates only exist transiently between independent
    project and deduplication, and are represented as plain lists there).

    Parameters
    ----------
    attributes:
        Ordered attribute names.
    network:
        The shared And-Or network the lineage nodes refer to.
    name:
        Optional label for debugging / plan explanation.
    """

    __slots__ = ("attributes", "network", "name", "_rows", "_positions")

    def __init__(
        self,
        attributes: Iterable[str],
        network: AndOrNetwork,
        name: str = "",
    ) -> None:
        self.attributes = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"duplicate attributes: {self.attributes}")
        self.network = network
        self.name = name
        self._rows: Dict[Row, tuple[int, float]] = {}
        self._positions = {a: i for i, a in enumerate(self.attributes)}

    # ----------------------------------------------------------- conversion
    def to_columnar(self, interner=None):
        """Column-oriented view of this relation (same network, same rows).

        Returns a :class:`~repro.core.columnar.ColumnarPLRelation` whose key
        columns are dictionary-encoded against *interner* (a fresh
        :class:`~repro.core.columnar.ValueInterner` when omitted). Relations
        that will be joined must share one interner.
        """
        from repro.core import columnar

        return columnar.from_plrelation(
            self, interner if interner is not None else columnar.ValueInterner()
        )

    # --------------------------------------------------------------- access
    def add(self, row: Iterable, lineage: int, probability: float) -> None:
        """Insert a row with its lineage node and probability."""
        r = tuple(row)
        if len(r) != len(self.attributes):
            raise SchemaError(
                f"row {r!r} has arity {len(r)}, expected {len(self.attributes)}"
            )
        p = float(probability)
        if not 0.0 < p <= 1.0:
            raise ProbabilityError(f"row {r!r} probability {p} outside (0, 1]")
        if not 0 <= lineage < len(self.network):
            raise SchemaError(f"row {r!r} references unknown lineage node {lineage}")
        if r in self._rows:
            raise SchemaError(f"duplicate row {r!r} in pL-relation {self.name!r}")
        self._rows[r] = (lineage, p)

    def lineage(self, row: Row) -> int:
        """Lineage node id of *row*."""
        return self._rows[tuple(row)][0]

    def probability(self, row: Row) -> float:
        """Probability column of *row* (the extensional part, not the marginal)."""
        return self._rows[tuple(row)][1]

    def items(self) -> Iterator[tuple[Row, int, float]]:
        """Iterate over ``(row, lineage, probability)`` triples."""
        for row, (l, p) in self._rows.items():
            yield row, l, p

    def rows(self) -> list[Row]:
        """All rows in insertion order."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def index_of(self, attribute: str) -> int:
        """Position of *attribute* in the schema."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"pL-relation {self.name!r} has no attribute {attribute!r}; "
                f"attributes are {self.attributes}"
            ) from None

    def symbolic_rows(self) -> list[Row]:
        """Rows whose lineage is not ε — the intensional part of the relation."""
        return [r for r, (l, _) in self._rows.items() if l != EPSILON]

    def is_purely_extensional(self) -> bool:
        """True when every row has trivial lineage (the relation 'looks independent')."""
        return not self.symbolic_rows()

    # ------------------------------------------------------------ semantics
    def marginal_via_enumeration(self, row: Row) -> float:
        """Exact ``Pr(row ∈ ω)`` by brute force on the network (tests only)."""
        l, p = self._rows[tuple(row)]
        return p * self.network.brute_force_marginal({l: 1})

    def world_probability(self, world: Iterable[Row], max_nodes: int = 20) -> float:
        """``ρ(ω)`` by literal evaluation of Eq. 5 (exponential; tests only).

        Enumerates every assignment ``z`` of the network's non-ε nodes and sums
        ``N(z) · P_I(ω, z_{l(t)} p(t))``.
        """
        ω = frozenset(tuple(r) for r in world)
        unknown = ω - set(self._rows)
        if unknown:
            return 0.0
        nodes = [v for v in self.network.nodes() if v != EPSILON]
        if len(nodes) > max_nodes:
            raise CapacityError(
                f"{len(nodes)} network nodes exceed the enumeration limit"
            )
        total = 0.0
        for values in itertools.product((0, 1), repeat=len(nodes)):
            z = dict(zip(nodes, values))
            z[EPSILON] = 1
            nz = self.network.joint_probability(z)
            if nz == 0.0:
                continue
            pi = 1.0
            for row, (l, p) in self._rows.items():
                presence = z[l] * p
                pi *= presence if row in ω else 1.0 - presence
                if pi == 0.0:
                    break
            total += nz * pi
        return total

    def distribution(self, max_nodes: int = 20) -> dict[frozenset, float]:
        """The full distribution over subsets of rows (tests only)."""
        rows = self.rows()
        if len(rows) > 16:
            raise CapacityError(f"{len(rows)} rows exceed the distribution limit")
        out: dict[frozenset, float] = {}
        for mask in range(1 << len(rows)):
            ω = frozenset(rows[i] for i in range(len(rows)) if mask >> i & 1)
            out[ω] = self.world_probability(ω, max_nodes=max_nodes)
        return out

    def __repr__(self) -> str:
        sym = len(self.symbolic_rows())
        return (
            f"<PLRelation {self.name!r}({', '.join(self.attributes)}) "
            f"{len(self)} rows, {sym} symbolic>"
        )
