"""Approximate confidence computation beyond the exact frontier.

Figure 6's message: exact evaluation hits a phase transition as the data gets
denser — "beyond this one must resort to approximate computations". This
script builds an instance past the comfortable exact region and compares the
approximate toolbox on one hard query answer:

* forward Monte-Carlo on the And-Or network (Section 7's suggestion);
* Karp-Luby on the partial-lineage DNF vs on the full lineage — the partial
  DNF is the smaller inference problem, as Section 4.2 promises;
* [19]-style interval bounds with an epsilon knob;
* OBDD compilation [17] as a second exact reference.

Run:  python examples/approximation.py
"""

import random
import time

from repro import (
    PartialLineageEvaluator,
    approximate_probability,
    build_obdd,
    karp_luby,
    lineage_of_query,
    parse_query,
    partial_lineage_dnf,
)
from repro.core.approximate import forward_sample_marginal, hoeffding_samples
from repro.workload.generator import WorkloadParams, generate_database


def main() -> None:
    db = generate_database(
        WorkloadParams(N=1, m=80, fanout=3, r_f=0.5, r_d=1.0, seed=99)
    )
    q = parse_query("R1(h,x), S1(h,x,y), R2(h,y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R1", "S1", "R2"])
    ((row, node, scale),) = list(result.relation.items())
    print(f"instance: m=80, r_f=0.5 — {result.offending_count} offending "
          f"tuples, network of {len(result.network)} nodes")

    from repro.core.inference import compute_marginal

    start = time.perf_counter()
    exact = scale * compute_marginal(result.network, node)
    print(f"\nexact Pr(q) = {exact:.6f}   "
          f"({time.perf_counter() - start:.3f}s)")

    n = hoeffding_samples(epsilon=0.01, delta=0.05)
    print(f"\nHoeffding says {n} samples give ±0.01 at 95% confidence:")
    start = time.perf_counter()
    est = scale * forward_sample_marginal(
        result.network, node, n, random.Random(0)
    )
    print(f"  forward sampling      = {est:.6f}  "
          f"(err {abs(est - exact):.5f}, {time.perf_counter() - start:.3f}s)")

    pdnf, pprobs = partial_lineage_dnf(result.network, node)
    fdnf, fprobs = lineage_of_query(q, db)
    print(f"\npartial-lineage DNF: {len(pdnf)} clauses / "
          f"{len(pdnf.variables())} vars;  full lineage: {len(fdnf)} clauses "
          f"/ {len(fdnf.variables())} vars")
    for label, dnf, probs, factor in (
        ("partial", pdnf, pprobs, scale),
        ("full   ", fdnf, fprobs, 1.0),
    ):
        start = time.perf_counter()
        est = factor * karp_luby(dnf, probs, 20000, random.Random(1))
        print(f"  Karp-Luby {label} DNF = {est:.6f}  "
              f"(err {abs(est - exact):.5f}, "
              f"{time.perf_counter() - start:.3f}s)")

    print("\ninterval bounds on the partial DNF:")
    for epsilon in (0.2, 0.02, 0.002):
        start = time.perf_counter()
        iv = approximate_probability(pdnf, pprobs, epsilon=epsilon)
        print(f"  ε={epsilon:<6} -> [{scale * iv.lower:.5f}, "
              f"{scale * iv.upper:.5f}]  "
              f"({time.perf_counter() - start:.3f}s)")
        assert iv.lower - 1e-9 <= exact / scale <= iv.upper + 1e-9

    start = time.perf_counter()
    obdd = build_obdd(pdnf)
    value = scale * obdd.probability(pprobs)
    print(f"\nOBDD of the partial DNF: {len(obdd)} nodes, "
          f"Pr = {value:.6f} ({time.perf_counter() - start:.3f}s) — and "
          f"reusable: changing tuple probabilities re-evaluates in one pass.")


if __name__ == "__main__":
    main()
