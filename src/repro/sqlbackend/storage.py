"""SQLite storage for probabilistic databases.

One table per relation, named after it, with the schema's attribute names as
columns plus a ``p`` column holding the tuple's marginal probability. A
custom aggregate ``indep_or`` implements the extensional projection
``1 - Π (1 - p)`` inside the database.
"""

from __future__ import annotations

import sqlite3
from repro.db.database import ProbabilisticDatabase
from repro.db.relation import ProbabilisticRelation
from repro.errors import SchemaError


class _IndepOr:
    """SQLite aggregate: ``1 - product(1 - p)`` over the group's ``p`` values.

    Floored at the largest member: subnormal-tiny ``p`` round ``1 - p`` to
    exactly 1, and the fold would otherwise return 0 for a non-empty OR.
    """

    def __init__(self) -> None:
        self.failure = 1.0
        self.top = 0.0

    def step(self, p: float) -> None:
        self.failure *= 1.0 - p
        self.top = max(self.top, p)

    def finalize(self) -> float:
        return min(1.0, max(self.top, 1.0 - self.failure))


class SQLiteStorage:
    """An open SQLite database mirroring a :class:`ProbabilisticDatabase`.

    Examples
    --------
    >>> from repro.db import ProbabilisticDatabase
    >>> db = ProbabilisticDatabase()
    >>> _ = db.add_relation("R", ("A",), {(1,): 0.5})
    >>> store = SQLiteStorage.from_database(db)
    >>> store.connection.execute("SELECT A, p FROM R").fetchall()
    [(1, 0.5)]
    """

    def __init__(self, connection: sqlite3.Connection | None = None) -> None:
        self.connection = connection or sqlite3.connect(":memory:")
        self.connection.create_aggregate("indep_or", 1, _IndepOr)
        self._tables: set[str] = set()
        self._mathfuncs: bool | None = None

    def has_math_functions(self) -> bool:
        """True when SQLite was built with EXP/LN/POWER (3.35+ default).

        The probability folds prefer the native ``1 - EXP(SUM(LN(1-p)))``
        form (one pass, no Python per group); the ``indep_or`` aggregate is
        the fallback.
        """
        if self._mathfuncs is None:
            try:
                self.connection.execute("SELECT EXP(0.0), LN(1.0), POWER(2.0, 2.0)")
                self._mathfuncs = True
            except sqlite3.OperationalError:
                self._mathfuncs = False
        return self._mathfuncs

    @classmethod
    def from_database(cls, db: ProbabilisticDatabase) -> "SQLiteStorage":
        """Load every relation of *db* into a fresh in-memory SQLite database."""
        store = cls()
        for rel in db:
            store.load_relation(rel)
        return store

    def load_relation(self, relation: ProbabilisticRelation) -> None:
        """Create and populate the table for one relation."""
        name = relation.name
        if name in self._tables:
            raise SchemaError(f"table {name} already loaded")
        _check_identifier(name)
        cols = relation.schema.attributes
        for c in cols:
            _check_identifier(c)
        decl = ", ".join(f'"{c}"' for c in cols)
        self.connection.execute(f'CREATE TABLE "{name}" ({decl}, p REAL NOT NULL)')
        placeholders = ", ".join("?" for _ in range(len(cols) + 1))
        self.connection.executemany(
            f'INSERT INTO "{name}" VALUES ({placeholders})',
            (row + (p,) for row, p in relation.items()),
        )
        self.connection.commit()
        self._tables.add(name)

    def tables(self) -> list[str]:
        """Names of loaded relations."""
        return sorted(self._tables)

    def close(self) -> None:
        """Close the underlying connection."""
        self.connection.close()

    def __enter__(self) -> "SQLiteStorage":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _check_identifier(name: str) -> None:
    if not name.isidentifier():
        raise SchemaError(f"unsafe SQL identifier: {name!r}")
