"""Extension bench: exact vs approximate confidence computation.

Section 7: sampling and approximation strategies "can be used on the And-Or
Networks as well", and partial lineage "reduces the original problem into an
inference problem of smaller scale — it takes less time to sample the data
and more samples mean better approximation". Measured here on a hard
instance (r_f = 0.6):

* exact partial lineage (reference);
* forward sampling on the And-Or network, at two sample sizes;
* Karp-Luby on the partial-lineage DNF vs on the FULL lineage — the partial
  DNF is smaller, so the same sample count is cheaper;
* the [19]-style interval bounds at two epsilons;
* OBDD compilation [17] of both DNFs.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.approximate import forward_sample_marginal, karp_luby_marginal
from repro.core.compile import partial_lineage_dnf
from repro.core.executor import PartialLineageEvaluator
from repro.errors import CapacityError
from repro.lineage.approx_bounds import approximate_probability
from repro.lineage.dnf import lineage_of_query
from repro.lineage.obdd import build_obdd
from repro.lineage.sampling import karp_luby
from repro.query.parser import parse_query
from repro.workload.generator import WorkloadParams, generate_database

from repro.bench.reporting import format_table
from benchmarks.conftest import bench_report


def test_approximation_methods(benchmark):
    db = generate_database(
        WorkloadParams(N=1, m=60, fanout=3, r_f=0.6, r_d=1.0, seed=55)
    )
    q = parse_query("R1(h,x), S1(h,x,y), R2(h,y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R1", "S1", "R2"])
    node = result.relation.lineage(result.relation.rows()[0])
    scale = result.relation.probability(result.relation.rows()[0])

    from repro.core.inference import compute_marginal

    start = time.perf_counter()
    exact = scale * compute_marginal(result.network, node)
    t_exact = time.perf_counter() - start

    rows = [("exact (partial lineage)", f"{exact:.6f}", "-", round(t_exact, 4))]

    rng = random.Random(0)
    for samples in (2000, 20000):
        start = time.perf_counter()
        est = scale * forward_sample_marginal(result.network, node, samples, rng)
        t = time.perf_counter() - start
        err = abs(est - exact)
        rows.append((f"forward sampling ({samples})", f"{est:.6f}",
                     f"{err:.4f}", round(t, 4)))
        assert err < 0.05 if samples >= 20000 else True

    pdnf, pprobs = partial_lineage_dnf(result.network, node)
    fdnf, fprobs = lineage_of_query(q, db)
    start = time.perf_counter()
    est = scale * karp_luby(pdnf, pprobs, 20000, random.Random(1))
    t_pkl = time.perf_counter() - start
    rows.append((f"Karp-Luby partial DNF ({len(pdnf)} clauses)",
                 f"{est:.6f}", f"{abs(est - exact):.4f}", round(t_pkl, 4)))
    start = time.perf_counter()
    est_full = karp_luby(fdnf, fprobs, 20000, random.Random(1))
    t_fkl = time.perf_counter() - start
    rows.append((f"Karp-Luby full DNF ({len(fdnf)} clauses)",
                 f"{est_full:.6f}", f"{abs(est_full - exact):.4f}",
                 round(t_fkl, 4)))
    assert len(pdnf) <= len(fdnf)  # "a strict subset of the full lineage"

    for epsilon in (0.1, 0.001):
        start = time.perf_counter()
        iv = approximate_probability(pdnf, pprobs, epsilon=epsilon)
        t = time.perf_counter() - start
        assert iv.contains(exact / scale)
        rows.append((f"interval bounds ε={epsilon}",
                     f"[{scale * iv.lower:.4f}, {scale * iv.upper:.4f}]",
                     f"≤{scale * iv.width:.4f}", round(t, 4)))

    for label, dnf, probs in (("partial", pdnf, pprobs), ("full", fdnf, fprobs)):
        start = time.perf_counter()
        try:
            d = build_obdd(dnf, max_nodes=500_000)
            value = d.probability(probs) * (scale if label == "partial" else 1.0)
            t = time.perf_counter() - start
            assert value == pytest.approx(exact, abs=1e-9)
            rows.append((f"OBDD {label} DNF ({len(d)} nodes)",
                         f"{value:.6f}", "0", round(t, 4)))
        except CapacityError:
            rows.append((f"OBDD {label} DNF", "blow-up", "-", "-"))

    benchmark(lambda: forward_sample_marginal(result.network, node, 2000,
                                              random.Random(2)))
    bench_report(
        "approximation_methods",
        format_table(
            ("method", "estimate", "error/width", "time s"),
            rows,
            title=(
                "Extension: exact vs approximate confidence on a hard "
                "instance (P1 body, N=1, m=60, r_f=0.6)"
            ),
        ),
    )
