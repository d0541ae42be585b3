"""Pinned oracle answers, and the checks every operation's output goes through.

The oracle is independent of the measured pipeline by construction: it
grounds the query (``repro.lineage.dnf.answer_lineages``) and solves each
answer's full DNF exactly (``repro.lineage.exact.dnf_probability``) — no
plan, no pL operators, no And-Or network.

``python -m benchmarks.e2e.golden --regen`` recomputes ``golden/*.json`` and
the input digests in ``workloads.json`` (minutes; see README.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.lineage.dnf import answer_lineages
from repro.lineage.exact import dnf_probability
from repro.query.parser import parse_query

from benchmarks.e2e import inputs, spec
from benchmarks.e2e.harness import pin_hash_seed

GOLDEN_DIR = inputs.HERE / "golden"
ORACLE_MAX_CALLS = 50_000_000

#: exact answers must match the oracle to this
EXACT_TOLERANCE = 1e-9
#: a pinned top-k sequence needs neighbours at least this far apart
RANK_GAP = 1e-6
#: `repro query` prints 4 significant digits
CLI_RELATIVE_TOLERANCE = 6e-4


def oracle_answers(db, query_name: str) -> dict[str, float]:
    """Exact answer probabilities of one Table 1 query, by key."""
    query = parse_query(spec.QUERIES[query_name][0])
    dnfs, probs = answer_lineages(query, db)
    return {
        inputs.answer_key(row): dnf_probability(
            dnf, probs, max_calls=ORACLE_MAX_CALLS
        )
        for row, dnf in dnfs.items()
    }


def rank(answers: dict[str, float], k: int) -> list[str]:
    """Keys of the *k* most probable answers, ties by key — the order
    ``certified_top_k`` promises."""
    typed = sorted(answers.items(), key=lambda kv: (-kv[1], _retype(kv[0])))
    return [key for key, _ in typed[:k]]


def _retype(key: str):
    return tuple(int(v) for v in key.split(","))


def compute(dataset: str, seed: int, quick: bool, db) -> dict:
    """The golden record of one instance, *db*."""
    d = inputs.data_spec(dataset, quick)
    states = {"A": db}
    if dataset == "serve":
        states["B"] = inputs.in_state_b(db)
    record: dict = {
        "instance": inputs.instance_id(dataset, seed, quick),
        "answers": {
            state: {q: oracle_answers(sdb, q) for q in d.queries}
            for state, sdb in states.items()
        },
    }
    if d.k:
        answers = record["answers"]["A"][d.queries[0]]
        record["topk"] = rank(answers, d.k)
        top = sorted(answers.values(), reverse=True)[: d.k + 1]
        if min(a - b for a, b in zip(top, top[1:])) < RANK_GAP:
            raise RuntimeError(
                f"{record['instance']}: top answers closer than {RANK_GAP}; "
                f"the exact ranking would be decided by rounding"
            )
    return record


def regen(datasets, quick: bool) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for dataset in datasets:
        for seed in spec.PINNED_SEEDS:
            key = inputs.instance_id(dataset, seed, quick)
            start = time.perf_counter()
            db = inputs.build(dataset, seed, quick)
            record = compute(dataset, seed, quick, db)
            with open(GOLDEN_DIR / f"{key}.json", "w") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
                handle.write("\n")
            inputs.update_pin(key, inputs.digests(db))
            print(f"{key}: {time.perf_counter() - start:.1f}s", flush=True)


def load(dataset: str, seed: int, quick: bool) -> dict:
    path = GOLDEN_DIR / f"{inputs.instance_id(dataset, seed, quick)}.json"
    with open(path) as handle:
        return json.load(handle)


# ------------------------------------------------------------------ checks
# Each check returns the list of failures of one operation, every entry
# naming the answer; the caller prefixes workload and op.

def check_exact(
    truth: dict[str, float], got: dict[str, float], relative: float = 0.0
) -> list[str]:
    """*got* has exactly the oracle's answers, each within tolerance."""
    problems = [f"answer {k}: missing" for k in truth.keys() - got.keys()]
    problems += [f"answer {k}: not an answer" for k in got.keys() - truth.keys()]
    for key in truth.keys() & got.keys():
        tolerance = max(EXACT_TOLERANCE, relative * truth[key])
        if not abs(got[key] - truth[key]) <= tolerance:
            problems.append(
                f"answer {key}: got {got[key]!r}, oracle {truth[key]!r}"
            )
    return sorted(problems)


def check_enclosures(
    truth: dict[str, float], got: dict[str, tuple[float, float, bool]]
) -> list[str]:
    """*got* maps key to ``(lower, upper, exact)``: every enclosure holds the
    oracle value, and an answer flagged exact equals it."""
    problems = [f"answer {k}: missing" for k in truth.keys() - got.keys()]
    problems += [f"answer {k}: not an answer" for k in got.keys() - truth.keys()]
    for key in truth.keys() & got.keys():
        lower, upper, exact = got[key]
        p = truth[key]
        if not lower - EXACT_TOLERANCE <= p <= upper + EXACT_TOLERANCE:
            problems.append(
                f"answer {key}: oracle {p!r} outside [{lower!r}, {upper!r}]"
            )
        elif exact and upper - lower > 2 * EXACT_TOLERANCE:
            problems.append(
                f"answer {key}: flagged exact with width {upper - lower!r}"
            )
    return sorted(problems)


def check_sequence(truth: list[str], got: list[str]) -> list[str]:
    if truth == got:
        return []
    return [f"top-k sequence: got {got}, oracle {truth}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.golden")
    parser.add_argument("--regen", action="store_true", required=True)
    parser.add_argument("--only", nargs="+", default=sorted(spec.DATASETS),
                        choices=sorted(spec.DATASETS), metavar="DATASET")
    parser.add_argument("--quick", action="store_true",
                        help="the m/8 instances of --quick runs")
    args = parser.parse_args(argv)
    pin_hash_seed()  # so that --regen reproduces the committed files exactly
    regen(args.only, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
