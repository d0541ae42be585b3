"""Figure 4 / Section 4.2 walkthrough: the partial-lineage pipeline, step by
step, on the paper's running example q :- R(x), S(x,y), T(y).

R's values a1, a2 violate the functional dependency x -> y in S (they join
with two S tuples each) and become the offending tuples; a3, a4 are handled
purely extensionally. Prints every operator's output, reproducing the partial
lineage the paper shows:

    pi_y(R ⋈ S) = { (b1, 0.11·r1 ∨ 0.13·r2 ∨ 0.10612),
                    (b2, 0.12·r1 ∨ 0.14·r2) }

Run:  python examples/walkthrough_fig4.py
"""

from repro import AndOrNetwork, EPSILON, ProbabilisticDatabase
from repro.core.columnar import (
    ColumnarPLRelation,
    ValueInterner,
    deduplicate,
    from_base,
    independent_project,
    pl_join,
    project,
)
from repro.core.inference import compute_marginal
from repro.core.network import NodeKind


def show(rel: ColumnarPLRelation, title: str) -> None:
    print(f"\n{title}")
    net = rel.network
    for row, l, p in rel.items():
        if l == EPSILON:
            lineage = "ε"
        else:
            kind = net.kind(l).value
            lineage = f"n{l}({kind})"
        print(f"  {row!r:24s} l={lineage:10s} p={p:.6g}")


def show_network(net: AndOrNetwork) -> None:
    print("\nAnd-Or network:")
    for v in net.nodes():
        kind = net.kind(v)
        if kind is NodeKind.LEAF:
            label = "ε" if v == EPSILON else f"leaf P={net.leaf_probability(v)}"
            print(f"  n{v}: {label}")
        else:
            parents = ", ".join(f"n{w}@{q:g}" for w, q in net.parents(v))
            print(f"  n{v}: {kind.value}({parents})")


def main() -> None:
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {
        ("a1",): 0.5, ("a2",): 0.5, ("a3",): 0.3, ("a4",): 0.4,
    })
    db.add_relation("S", ("A", "B"), {
        ("a1", "b1"): 0.11, ("a1", "b2"): 0.12,
        ("a2", "b1"): 0.13, ("a2", "b2"): 0.14,
        ("a3", "b1"): 0.15, ("a4", "b1"): 0.16,
    })
    db.add_relation("T", ("B",), {("b1",): 0.2, ("b2",): 0.3})

    # One network for the whole plan, one dictionary encoding of the values.
    net, interner = AndOrNetwork(), ValueInterner()
    r = from_base(db["R"], net, interner)
    s = from_base(db["S"], net, interner)
    t = from_base(db["T"], net, interner)
    show(r, "R (base; all lineage ε)")

    # Join 1: R ⋈ S. a1, a2 are uncertain with two join partners each, so
    # cSet conditioning (Cond in Fig. 4) fires on them first.
    joined, conditioned = pl_join(r, s, ("A",))
    print(f"\nCond: conditioned {conditioned} offending tuples (a1, a2)")
    show(joined, "R ⋈_pL S (offending rows keep symbols; rest are numbers)")

    # Projection π_y = independent project + deduplication.
    ip = independent_project(joined, ("B",))
    print("\nIndProj (group by value AND lineage, OR the probabilities):")
    for codes, l, p in zip(ip.codes, ip.lineage.tolist(), ip.probs.tolist()):
        row = tuple(interner.decode_column(codes))
        print(f"  {row!r:10s} l={'ε' if l == EPSILON else f'n{l}'} p={p:.6g}")
    projected = deduplicate(joined, ("B",), ip)
    show(projected, "Dedup: duplicate groups become Or nodes "
                    "(note ε's edge probability 0.10612)")

    # Join 2 is 1-1 (each y-row meets one T tuple): no conditioning needed.
    final_join, conditioned2 = pl_join(projected, t, ("B",))
    print(f"\nSecond join conditioned {conditioned2} tuples (1-1: data safe)")
    show(final_join, "π_y(R ⋈ S) ⋈_pL T")

    answer = project(final_join, ())
    show(answer, "π_∅(...): the Boolean answer tuple")
    show_network(net)

    ((_, l, p),) = answer.items()
    marginal = compute_marginal(net, l)
    print(f"\nPr(q) = p · Pr(n{l}=1) = {p:.6g} · {marginal:.6g} "
          f"= {p * marginal:.6g}")

    from repro import brute_force_probability, parse_query
    from repro.query.grounding import world_satisfies

    q = parse_query("R(x), S(x,y), T(y)")
    oracle = brute_force_probability(db, lambda w: world_satisfies(q, w))
    print(f"possible-worlds check          = {oracle:.6g}")


if __name__ == "__main__":
    main()
