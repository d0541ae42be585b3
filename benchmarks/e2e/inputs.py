"""Generated inputs and their pins.

Inputs come from the Section 6.1 generator; a sha256 per relation is
recorded in ``workloads.json`` for every pinned instance, and a mismatch at
set-up is a hard error: a later change to ``repro.workload.generator``
cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import pathlib

from repro.db import ProbabilisticDatabase
from repro.workload.generator import WorkloadParams, generate_database

from benchmarks.e2e import spec

HERE = pathlib.Path(__file__).resolve().parent
PINS_PATH = HERE / "workloads.json"


class InputMismatch(RuntimeError):
    """Generated inputs differ from the pinned digests."""


def instance_id(dataset: str, seed: int, quick: bool) -> str:
    return f"{dataset}{'-quick' if quick else ''}-s{seed}"


def data_spec(dataset: str, quick: bool) -> spec.DataSpec:
    d = spec.DATASETS[dataset]
    return d.quick() if quick else d


def _generate(d: spec.DataSpec, r_f: float, seed: int) -> ProbabilisticDatabase:
    return generate_database(
        WorkloadParams(N=d.N, m=d.m, fanout=d.fanout, r_f=r_f, r_d=1.0, seed=seed)
    )


def _ranked(d: spec.DataSpec, seed: int) -> ProbabilisticDatabase:
    """Hard low-ranked heads, easy top heads, probabilities damped by rank.

    Every Table 1 query joins per head ``H``, so heads are independent and
    two generator runs can be spliced head by head: heads below ``N - k``
    keep the high-``r_f`` rows (the fan-out hardness), the top ``k`` heads
    take the low-``r_f`` rows. Multiplying head ``h``'s probabilities by
    ``scale * spread ** (1 - h/(N-1))`` keeps the answers away from 1 and
    ranks the easy heads higher, without making any tuple deterministic, so
    the hard heads stay hard. Only the relations the instance's queries read
    are spliced.
    """
    hard = _generate(d, d.r_f, seed)
    easy = _generate(d, d.easy_rf, seed)
    cut = d.N - d.k
    out = ProbabilisticDatabase()
    used = {name for q in d.queries for name in spec.QUERIES[q][1]}
    for rel in hard:
        if rel.name not in used:
            continue
        h_at = rel.schema.attributes.index("H")
        rows: dict[tuple, float] = {}
        for source, wants_low in ((hard[rel.name], True), (easy[rel.name], False)):
            for row, p in source.items():
                h = row[h_at]
                if (h < cut) != wants_low:
                    continue
                rows[row] = p * d.scale * d.spread ** (1.0 - h / (d.N - 1))
        out.add_relation(rel.name, rel.schema.attributes, rows)
    return out


def build(dataset: str, seed: int, quick: bool) -> ProbabilisticDatabase:
    """The database of *dataset* for generator seed *seed*."""
    d = data_spec(dataset, quick)
    return _ranked(d, seed) if d.k else _generate(d, d.r_f, seed)


def digests(db: ProbabilisticDatabase) -> dict[str, str]:
    """sha256 of each relation's sorted ``(row, p)`` list."""
    out = {}
    for rel in db:
        h = hashlib.sha256()
        for item in sorted(rel.items()):
            h.update(repr(item).encode())
            h.update(b"\n")
        out[rel.name] = h.hexdigest()
    return out


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def update_pin(key: str, value: dict[str, str]) -> None:
    """Record one instance's digests; locked, because several ``--regen``
    processes may run side by side on disjoint datasets."""
    with open(PINS_PATH, "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        handle.seek(0)
        text = handle.read()
        pins = json.loads(text) if text else {}
        pins[key] = value
        handle.seek(0)
        handle.truncate()
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def build_checked(
    dataset: str, seed: int, quick: bool, pins: dict
) -> ProbabilisticDatabase:
    """:func:`build`, then compare against the pinned digests."""
    db = build(dataset, seed, quick)
    key = instance_id(dataset, seed, quick)
    try:
        pinned = pins[key]
    except KeyError:
        raise InputMismatch(
            f"{key}: no pinned digests in {PINS_PATH.name}; run "
            f"`python -m benchmarks.e2e.golden --regen`"
        ) from None
    found = digests(db)
    bad = sorted(r for r in pinned.keys() | found.keys() if pinned.get(r) != found.get(r))
    if bad:
        raise InputMismatch(
            f"{key}: generated relations {bad} differ from the digests pinned "
            f"in {PINS_PATH.name}; the generator changed"
        )
    return db


def state_b_probability(db: ProbabilisticDatabase) -> tuple[float, float]:
    """``(p_a, p_b)`` of the tuple ``serve_readwrite`` flips."""
    p_a = db[spec.WRITE_RELATION].probability(spec.WRITE_ROW)
    return p_a, 1.0 - p_a


def in_state_b(db: ProbabilisticDatabase) -> ProbabilisticDatabase:
    """A copy of *db* with the written tuple at its state-B probability."""
    out = db.copy()
    out[spec.WRITE_RELATION].set_probability(
        spec.WRITE_ROW, state_b_probability(db)[1]
    )
    return out


def answer_key(row) -> str:
    """Answers are compared by string key: the CSV path re-types values."""
    return ",".join(str(v) for v in row)
