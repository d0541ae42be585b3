"""The degradation ladder answers bit-for-bit alike under any hash seed.

``resilient_answer_probabilities(seed=...)`` promises that runs agree
bit-for-bit; set and frozenset iteration order changes with
``PYTHONHASHSEED``, so any float sum taken in that order (the sampling
rung's union weight was one) breaks the promise between two interpreter
runs while every in-process check stays green.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

#: Four heads of ``R1(h,x), S1(h,x,y), R2(h,y)``, head ``h`` carrying
#: ``rst_lineage(6, 0.6, h)``. The database is built from the sorted
#: variables, so its input does not itself depend on the hash seed. The
#: budget rules out the exact, OBDD and (at this epsilon) bounds rungs, so
#: every answer comes from the Karp-Luby sampling rung. Step timings are
#: wall-clock, so the script prints each enclosure without them, then its
#: rungs, outcomes and reasons.
SCRIPT = textwrap.dedent(
    """
    from dataclasses import replace

    from repro.core.executor import PartialLineageEvaluator
    from repro.db import ProbabilisticDatabase
    from repro.query import parse_query
    from repro.resilience import QueryBudget
    from tests.conftest import rst_lineage

    rows = {"R": {}, "S": {}, "T": {}}
    for h in range(4):
        dnf, probs = rst_lineage(6, 0.6, h)
        for v in sorted(dnf.variables()):
            rows[v.relation][(h,) + v.row] = probs[v]
    db = ProbabilisticDatabase()
    db.add_relation("R1", ("H", "A"), rows["R"])
    db.add_relation("S1", ("H", "A", "B"), rows["S"])
    db.add_relation("R2", ("H", "B"), rows["T"])
    budget = QueryBudget(
        max_width=0, dpll_max_calls=0, obdd_max_nodes=1,
        approx_epsilon=1e-9, approx_max_calls=20, max_samples=500,
    )
    result = PartialLineageEvaluator(db).evaluate_query(
        parse_query("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)"))
    answers = result.resilient_answer_probabilities(budget, seed=0)
    for row in sorted(answers):
        e = answers[row]
        print(row, repr(replace(e, steps=())))
        print([(s.rung, s.outcome, s.reason) for s in e.steps])
    """
)


def _run(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_sampling_rung_enclosures_do_not_depend_on_the_hash_seed():
    first, second = _run("1"), _run("2")
    assert first.count("method='karp-luby'") == 4, first
    assert first == second
