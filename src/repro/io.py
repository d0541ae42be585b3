"""Loading and saving probabilistic databases as CSV directories.

Format: one ``<Relation>.csv`` per relation; the header row names the
attributes and ends with a ``p`` column carrying the tuple probability.
Values that parse as integers or floats are loaded as numbers, everything
else as strings — matching what the workload generator and the examples
produce.

Used by the CLI and handy for persisting generated benchmark instances so a
sweep can be re-run on the exact same data.
"""

from __future__ import annotations

import csv
import math
import pathlib
from typing import Iterable

from repro.db.database import ProbabilisticDatabase
from repro.db.relation import ProbabilisticRelation
from repro.errors import ProbabilityError, ReproError


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            return value


def load_database(
    directory: str | pathlib.Path,
    *,
    relations: Iterable[str] | None = None,
) -> ProbabilisticDatabase:
    """Load the ``*.csv`` relations of *directory* into a database.

    By default every ``*.csv`` in the directory is loaded. With
    *relations*, only ``<name>.csv`` for each of those names is read — the
    CLI passes the relations its query names, so an unrelated (even
    malformed) file in the directory costs nothing. Every file that is
    read is checked in full either way: header, probabilities (finite, in
    ``(0, 1]``), arity and duplicate tuples.

    Each relation is filled before it is attached, so the database's
    :attr:`~repro.db.ProbabilisticDatabase.version` moves once per
    relation, not once per row.

    Raises
    ------
    ReproError
        If the directory holds no CSV files, a named relation has no file
        (the message lists the relations the directory does hold), or a
        header lacks the trailing ``p`` column.
    ProbabilityError
        If a ``p`` value is not a finite number — NaN or Inf in the input
        would otherwise poison every probability computed downstream, far
        from the offending file — or lies outside ``(0, 1]``.
    SchemaError
        If a row's arity does not match its header, or a tuple repeats.
    """
    path = pathlib.Path(directory)
    present = sorted(path.glob("*.csv"))
    if not present:
        raise ReproError(f"no .csv relations found in {str(directory)!r}")
    files = present
    if relations is not None:
        wanted = set(relations)
        files = [f for f in present if f.stem in wanted]
        missing = wanted - {f.stem for f in files}
        if missing:
            raise ReproError(
                f"no {', '.join(f'{n}.csv' for n in sorted(missing))} in "
                f"{str(directory)!r}; its relations: "
                f"{', '.join(f.stem for f in present)}"
            )
    db = ProbabilisticDatabase()
    for file in files:
        db.attach(_load_relation(file))
    return db


def _load_relation(file: pathlib.Path) -> ProbabilisticRelation:
    """One validated relation from ``<name>.csv``."""
    with open(file, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[-1].strip().lower() != "p":
            raise ReproError(
                f"{file.name}: last header column must be 'p' "
                f"(the tuple probability)"
            )
        attrs = tuple(a.strip() for a in header[:-1])
        rel = ProbabilisticRelation.create(file.stem, attrs)
        for lineno, line in enumerate(reader, start=2):
            if not line:
                continue
            *values, p = line
            try:
                prob = float(p)
            except ValueError:
                raise ProbabilityError(
                    f"{file.name}:{lineno}: probability {p!r} is not a "
                    f"number"
                ) from None
            if not math.isfinite(prob):
                raise ProbabilityError(
                    f"{file.name}:{lineno}: probability {p!r} is not "
                    f"finite; NaN/Inf would poison downstream inference"
                )
            rel.add(tuple(_coerce(v.strip()) for v in values), prob)
    return rel


def save_database(db: ProbabilisticDatabase, directory: str | pathlib.Path) -> None:
    """Write every relation of *db* as ``<name>.csv`` under *directory*.

    The directory is created if needed; existing relation files are
    overwritten. Round-trips with :func:`load_database` for int/float/str
    values.
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for rel in db:
        with open(path / f"{rel.name}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(list(rel.schema.attributes) + ["p"])
            for row, p in rel.items():
                writer.writerow(list(row) + [repr(p)])
