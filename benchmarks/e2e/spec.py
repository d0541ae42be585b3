"""Everything about the benchmark that is fixed: queries, data shapes,
workloads and metric names.

The names here are the ones ``BENCHMARK.json`` and ``README.md`` list;
:func:`benchmark_json` renders the former so the two cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Table 1 of the paper with its listed join orders, hard-coded so a change
#: to ``repro.workload.queries`` cannot silently change the workloads.
QUERIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "P1": ("q(h) :- R1(h,x), S1(h,x,y), R2(h,y)", ("R1", "S1", "R2")),
    "P2": ("q(h) :- R1(h,x), S1(h,x,y), S2(h,y,z), R2(h,z)",
           ("R1", "S1", "S2", "R2")),
    "P3": ("q(h) :- R1(h,x), S1(h,x,y), S2(h,y,z), S3(h,z,u), R2(h,u)",
           ("R1", "S1", "S2", "S3", "R2")),
    "S2": ("q(h) :- R1(h,x), T1(h,x,y,z), R2(h,y), R3(h,z)",
           ("R1", "T1", "R2", "R3")),
    "S3": ("q(h) :- R1(h,x), T2(h,x,y,z,u), R2(h,y), R3(h,z), R4(h,u)",
           ("R1", "T2", "R2", "R3", "R4")),
}

#: Generator seeds whose inputs and oracle answers are pinned under
#: ``workloads.json`` / ``golden/``. ``--seed n`` runs the instance of
#: ``PINNED_SEEDS[n % 4]``: the exact oracle needs up to a minute per
#: instance, so it cannot run inside a benchmark run, and an unpinned
#: instance could not be checked. Seed 2 is left out: one S2 answer of its
#: ``dense`` instance is beyond the oracle (no result in 4 minutes).
PINNED_SEEDS = (0, 1, 3, 4)
INSTANCES = len(PINNED_SEEDS)

#: ``--quick`` divides every ``m`` by this.
QUICK_DIVISOR = 8


@dataclass(frozen=True)
class DataSpec:
    """One generated database: Section 6.1 parameters (``r_d`` is always 1)
    plus the Table 1 queries run on it."""

    N: int
    m: int
    fanout: int
    r_f: float
    queries: tuple[str, ...]
    #: ``r_f`` of the top-``k`` heads of the ranked splice; 0 = plain instance.
    easy_rf: float = 0.0
    #: head ``h``'s probabilities are multiplied by
    #: ``scale * spread ** (1 - h/(N-1))``
    spread: float = 1.0
    scale: float = 1.0
    k: int = 0

    def quick(self) -> "DataSpec":
        return replace(self, m=max(self.m // QUICK_DIVISOR, 8))


ALL_FIVE = ("P1", "P2", "P3", "S2", "S3")

DATASETS: dict[str, DataSpec] = {
    # paper Fig. 5 setting: near data safe
    "sparse": DataSpec(10, 3200, 4, 0.01, ALL_FIVE),
    # 10x the offending tuples, below the phase transition (P3/S3 do not
    # finish in minutes here)
    "dense": DataSpec(10, 3200, 3, 0.1, ("P1", "P2", "S2")),
    # exact inference alone needs ~24 s: the answer must come from the ladder
    "ladder": DataSpec(10, 200, 3, 0.4, ("P2",)),
    # hard low-ranked heads, easy top heads. Undamped (or with spread alone)
    # the top answers all round to 1.0 and their order is decided by the last
    # ulp; scale=0.3 puts the best answer near 0.77 and keeps neighbours
    # >= 3e-4 apart, spread=0.8 leaves 15-28 of 64 enclosures overlapping the
    # top-10 boundary, hard heads among them.
    "topk": DataSpec(64, 400, 4, 0.15, ("P1",), easy_rf=0.02, spread=0.8,
                     scale=0.3, k=10),
    "serve": DataSpec(10, 1600, 4, 0.01, ALL_FIVE),
}

#: DPLL call cap of the ``ladder`` op. A count, not a deadline, so rung
#: choice and enclosure widths repeat exactly.
LADDER_DPLL_CAP = 2000

#: Transactions of ``serve_readwrite`` flip this tuple between its generated
#: probability (state A) and ``1 - p`` (state B).
WRITE_RELATION = "R1"
WRITE_ROW = (0, 0)
WRITE_EVERY = 5

SERVE_CONNECTIONS = 2
SERVE_WORKERS = 2
SERVE_DEADLINE = 10.0


@dataclass(frozen=True)
class WorkloadSpec:
    why: str
    datasets: tuple[str, ...]
    #: what ``op_p50_ms`` / ``alt_op_p50_ms`` time on this workload
    op: str
    alt_op: str
    #: share of the measured window spent on the primary operation
    op_share: float


WORKLOADS: dict[str, WorkloadSpec] = {
    "table1_sparse": WorkloadSpec(
        "m=3200 r_f=0.01: near data safe, executor/columnar dominate. "
        "op = cold library sweep of P1,P2,P3,S2,S3; alt op = `repro query` "
        "subprocess on the CSV dump (import, load, evaluate).",
        ("sparse",), "cold_sweep", "cli_query", 0.55,
    ),
    "table1_dense": WorkloadSpec(
        "m=3200 r_f=0.1: 10x offending tuples, final inference is ~75% of a "
        "sweep. op = cold sweep of P1,P2,S2 (nothing shared); alt op = warm "
        "sweep (one evaluator and one SubformulaCache kept).",
        ("dense",), "cold_sweep", "warm_sweep", 0.5,
    ),
    "hard_bounded": WorkloadSpec(
        "exact inference is out of reach, so resilience + dissociation "
        "answer. op = ladder (P2, m=200 r_f=0.4, 2000-call DPLL cap, no "
        "deadline); alt op = certified top-10 on a ranked splice (N=64).",
        ("ladder", "topk"), "ladder", "topk", 0.6,
    ),
    "serve_read": WorkloadSpec(
        "request path, db never moves so every cache stays warm. op = "
        "ServeClient read with 2 closed-loop connections on a `repro serve` "
        "subprocess (m=1600, 5 prepared statements); alt op = same, 1 "
        "connection.",
        ("serve",), "read", "solo_read", 0.65,
    ),
    "serve_readwrite": WorkloadSpec(
        "writes beside reads: every 5th op of connection 0 commits a "
        "set_prob, flushing prepared-statement caches. op = read with 2 "
        "connections; alt op = a statement's first read after a commit.",
        ("serve",), "read", "read_after_commit", 1.0,
    ),
}

#: name, unit, better, bound — every workload reports every one of these.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("alt_op_p50_ms", "ms", "lower", 0.25),
    ("goodput_ops_s", "1/s", "higher", 0.25),
    ("exact_share", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

RUNGS = ("exact", "dissociation", "obdd", "bounds", "karp-luby", "forward")

#: name, unit, better, "end-to-end metric @ workload it should move".
#: A workload that does not exercise a layer reports 0 for its metrics.
PER_LAYER = (
    # workload-specific names of the operations behind op/alt_op, measured
    # untraced inside the traced run (its reference phase)
    ("cold_sweep_p50_ms", "ms", "lower", "op_p50_ms @ table1_*"),
    ("warm_sweep_p50_ms", "ms", "lower", "alt_op_p50_ms @ table1_dense"),
    ("cli_query_p50_s", "s", "lower", "alt_op_p50_ms @ table1_sparse"),
    ("ladder_p50_ms", "ms", "lower", "op_p50_ms @ hard_bounded"),
    ("ladder_exact_share", "ratio", "higher", "exact_share @ hard_bounded"),
    ("ladder_mean_width", "prob", "lower", "quality @ hard_bounded"),
    ("topk_p50_ms", "ms", "lower", "alt_op_p50_ms @ hard_bounded"),
    ("topk_refined_share", "ratio", "lower", "alt_op_p50_ms @ hard_bounded"),
    ("read_p50_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    ("read_p95_ms", "ms", "lower", "tail of op_p50_ms @ serve_*"),
    ("solo_read_p50_ms", "ms", "lower", "alt_op_p50_ms @ serve_read"),
    ("commit_p50_ms", "ms", "lower", "writers' latency @ serve_readwrite"),
    ("goodput_qps", "1/s", "higher", "goodput_ops_s @ serve_*"),
    ("failed_share", "ratio", "lower", "failed/attempted @ all"),
    # query / plan
    ("query.parse_ms", "ms", "lower", "op_p50_ms @ table1_sparse (<1%)"),
    ("plan.build_ms", "ms", "lower", "op_p50_ms @ table1_sparse (<1%)"),
    # io / cli
    ("io.load_ms", "ms", "lower", "alt_op_p50_ms @ table1_sparse; setup_s @ serve_*"),
    ("io.load_rows", "count", "lower", "alt_op_p50_ms @ table1_sparse"),
    ("cli.import_ms", "ms", "lower", "alt_op_p50_ms @ table1_sparse"),
    ("cli.eval_ms", "ms", "lower", "alt_op_p50_ms @ table1_sparse"),
    # executor
    ("executor.evaluate_cold_ms", "ms", "lower", "op_p50_ms @ table1_sparse"),
    ("executor.evaluate_warm_ms", "ms", "lower", "op_p50_ms @ serve_read"),
    ("executor.encode_ms", "ms", "lower", "op_p50_ms @ serve_readwrite only"),
    ("executor.scan_ms", "ms", "lower", "op_p50_ms @ table1_sparse"),
    ("executor.join_ms", "ms", "lower", "op_p50_ms @ table1_sparse"),
    ("executor.project_ms", "ms", "lower", "op_p50_ms @ table1_sparse"),
    ("executor.select_ms", "ms", "lower", "op_p50_ms @ table1_sparse"),
    ("executor.rows_out", "count", "lower", "op_p50_ms @ table1_sparse"),
    ("executor.offending", "count", "lower", "op_p50_ms @ table1_dense"),
    # network
    ("network.nodes", "count", "lower", "op_p50_ms @ table1_dense"),
    ("network.components", "count", "higher", "op_p50_ms @ table1_dense"),
    ("network.largest_component", "count", "lower", "op_p50_ms @ table1_dense"),
    ("network.components_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    ("network.extract_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    # parallel / inference
    ("inference.answer_cold_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    ("inference.answer_warm_ms", "ms", "lower", "alt_op_p50_ms @ table1_dense"),
    ("inference.treecheck_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    ("parallel.probe_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    ("parallel.solve_tree_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    ("parallel.solve_ve_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    ("parallel.solve_dpll_ms", "ms", "lower", "op_p50_ms @ table1_dense"),
    ("parallel.components_tree", "count", "higher", "op_p50_ms @ table1_dense"),
    ("parallel.components_ve", "count", "lower", "op_p50_ms @ table1_dense"),
    ("parallel.components_dpll", "count", "lower", "op_p50_ms @ table1_dense"),
    ("cache.subformula_hit_rate", "ratio", "higher",
     "alt_op_p50_ms @ table1_dense; op_p50_ms @ serve_read"),
    ("inference.unattributed_share", "ratio", "lower", "op_p50_ms @ table1_dense"),
    ("parallel.slice_pickle_bytes", "bytes", "lower", "nothing today (workers>=2)"),
    ("parallel.slice_pickle_ms", "ms", "lower", "nothing today (workers>=2)"),
    # dissociation
    ("dissociation.bounds_ms", "ms", "lower", "alt_op_p50_ms @ hard_bounded"),
    ("dissociation.mean_width", "prob", "lower", "topk_refined_share @ hard_bounded"),
    ("dissociation.max_width", "prob", "lower", "topk_refined_share @ hard_bounded"),
    ("dissociation.dissociated", "count", "lower", "alt_op_p50_ms @ hard_bounded"),
    ("topk.refine_ms", "ms", "lower", "alt_op_p50_ms @ hard_bounded"),
    ("topk.refined", "count", "lower", "alt_op_p50_ms @ hard_bounded"),
    ("topk.certified_out", "count", "higher", "alt_op_p50_ms @ hard_bounded"),
    # resilience
    ("ladder.total_ms", "ms", "lower", "op_p50_ms @ hard_bounded"),
    *(
        (f"ladder.rung.{rung}.{field}", unit, "lower", "op_p50_ms @ hard_bounded")
        for rung in RUNGS
        for field, unit in (("ms", "ms"), ("answers", "count"))
    ),
    ("ladder.exact_wasted_ms", "ms", "lower", "op_p50_ms @ hard_bounded"),
    ("ladder.exact_success_ratio", "ratio", "higher", "exact_share @ hard_bounded"),
    # serve
    ("serve.roundtrip_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    ("serve.execute_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    ("serve.overhead_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    ("serve.response_bytes", "bytes", "lower", "op_p50_ms @ serve_*"),
    ("protocol.encode_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    ("protocol.decode_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    ("server.inproc_ms", "ms", "lower", "op_p50_ms @ serve_read"),
    ("server.sched_overhead_ms", "ms", "lower", "op_p50_ms @ serve_read"),
    ("serve.concurrency_scaling", "ratio", "higher", "goodput_ops_s @ serve_read"),
    ("serve.queue_depth_max", "count", "lower", "read_p95_ms @ serve_*"),
    ("serve.shed", "count", "lower", "exact_share @ serve_*"),
    ("serve.rejected", "count", "lower", "failed @ serve_*"),
    ("prepared.infer_cache_hit_rate", "ratio", "higher", "op_p50_ms @ serve_read"),
    # db
    ("db.snapshot_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    ("db.commit_ms", "ms", "lower", "commit_p50_ms @ serve_readwrite"),
    ("serve.read_after_commit_ms", "ms", "lower",
     "alt_op_p50_ms, goodput_ops_s @ serve_readwrite"),
    ("serve.read_steady_ms", "ms", "lower", "op_p50_ms @ serve_*"),
    # the benchmark's own tracing
    ("trace.overhead_share", "ratio", "lower", "none (traced vs untraced op)"),
    ("trace.coverage_share", "ratio", "higher", "none (child spans / op wall)"),
)

#: ``run_seconds`` of ``BENCHMARK.json``, and the default of ``--seconds``.
RUN_SECONDS = 12


def benchmark_json() -> dict:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": w.why} for name, w in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
