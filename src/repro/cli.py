"""Command-line interface.

Seven subcommands, mirroring how the paper's system is exercised:

``repro query``
    Evaluate a conjunctive query over a CSV-backed probabilistic database
    and print per-answer probabilities plus the data-safety report.
    ``--top-k K`` switches to the bounds-first certifier: dissociation
    enclosures screen every answer at extensional speed and exact
    inference runs only where the ranking is contested — the printed top-k
    is identical to ranking every answer exactly.
``repro explain``
    Evaluate one query and print the full :class:`repro.obs.ExplainReport`:
    offending tuples per relation, the component histogram of the And-Or
    network, the inference engine chosen per component with estimated vs
    actual cost, and subformula-cache hit rates. ``--workload`` explains a
    Table 1 query on a generated Section 6.1 instance instead of a CSV
    database; ``--json`` writes the machine-readable report.
``repro workload``
    Generate a Section 6.1 benchmark instance and run a Table 1 query with
    the competing methods, printing the comparison row. ``--seed`` feeds
    both the generator and every sampling estimator, so runs are
    reproducible end to end.
``repro analyze``
    Static analysis of a query: hierarchy (safety), strict hierarchy
    (bounded lineage treewidth), and the safe plan if one exists.
``repro whatif``
    Sensitivity analysis over the offending tuples of one evaluation:
    per-answer swing rankings (batched circuit gradients by default, the
    scalar OBDD oracle behind ``--method obdd``), and ``--batch N``
    re-scores N random probability scenarios per answer through the
    compiled arithmetic circuit in one vectorized sweep.
``repro serve``
    Run the fault-tolerant query-service daemon (:mod:`repro.serve`) over
    a TCP or unix-domain socket: line-delimited JSON protocol, prepared
    statements with warm caches, bounded-queue admission control with
    queue-depth load shedding, transactional sessions with snapshot
    isolation, hung-request reaping, and graceful drain on ``shutdown``.
``repro obs``
    Observability: ``obs metrics`` renders the per-query flight records as
    an OpenMetrics/Prometheus text exposition, ``obs slo`` evaluates
    latency-percentile / error-rate / degradation-rate objectives (nonzero
    exit on violation), ``obs lint`` is the promtool-style exposition
    linter, and ``obs validate`` schema-checks a JSONL flight log. Each of
    the first two reads ``--flight-log PATH`` or replays a small Section
    6.1 workload in-process.

``query`` and ``workload`` accept ``--workers`` to fan final inference out
over a process pool (in-process by default). ``query`` additionally takes
``--deadline`` / ``--max-network-nodes`` (a strict
:class:`repro.resilience.QueryBudget`: blowing it is an error) and
``--degrade`` (resilient mode: hard answers degrade through the
:mod:`repro.resilience` ladder to sound ``[lower, upper]`` bounds instead of
failing, with ``--chunk-timeout`` bounding each pool dispatch). ``query``, ``workload``, and ``explain`` all
take ``--trace PATH`` (write a Chrome trace-event JSON of the run, workers
included), ``--profile`` (print the span tree with wall/CPU times), and
``--flight-log PATH`` (sink the always-on flight recorder's records for the
run to a JSONL file — one record per evaluation).

Database directory format: one ``<Relation>.csv`` per relation, first line a
header of attribute names, a trailing ``p`` column with the tuple
probability. Values that parse as integers/floats are loaded as numbers.

Run ``python -m repro.cli --help`` for details.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from repro.bench.harness import (
    run_full_lineage,
    run_partial_lineage,
    run_partial_lineage_sqlite,
    run_sampling,
)
from repro.bench.reporting import format_table, write_json_report
from repro.core.executor import PartialLineageEvaluator
from repro.core.explain import explain
from repro.core.optimizer import choose_join_order
from repro.core.plan import left_deep_plan
from repro.errors import ReproError, UnsafePlanError
from repro.io import load_database, save_database
from repro.extensional import safe_plan
from repro.obs import Tracer, format_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.query.hierarchy import is_hierarchical, is_strictly_hierarchical
from repro.query.parser import parse_query
from repro.workload.generator import WorkloadParams, generate_database
from repro.workload.queries import TABLE1_QUERIES, benchmark_query


@contextlib.contextmanager
def _observed(args: argparse.Namespace):
    """Activate a tracer while the command works when ``--trace``/``--profile``
    ask for one, and sink flight records to ``--flight-log``; export the span
    forest afterwards."""
    flight_path = getattr(args, "flight_log", None)
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    recorder = None
    with contextlib.ExitStack() as stack:
        if flight_path:
            from repro.obs import flight_recorder

            recorder = stack.enter_context(flight_recorder(flight_path))
        if not trace_path and not profile:
            yield
        else:
            with Tracer() as tracer:
                yield
            if profile:
                print()
                print(format_trace(tracer.roots))
            if trace_path:
                path = write_chrome_trace(trace_path, tracer.roots)
                print(f"wrote Chrome trace to {path} "
                      f"({tracer.total_spans()} spans)")
    if recorder is not None:
        print(f"wrote {recorder.recorded} flight records to {flight_path}")


def _query_budget(args: argparse.Namespace):
    """A :class:`~repro.resilience.QueryBudget` from the CLI flags, or
    ``None`` when no budget/degradation flag was given."""
    if (
        args.deadline is None
        and args.max_network_nodes is None
        and not args.degrade
    ):
        return None
    from repro.resilience import QueryBudget

    return QueryBudget(
        deadline_seconds=args.deadline,
        max_network_nodes=args.max_network_nodes,
        max_samples=args.max_samples,
    )


def cmd_query(args: argparse.Namespace) -> int:
    db = load_database(args.database)
    query = parse_query(args.query)
    budget = _query_budget(args)
    # In --degrade mode the budget applies to final inference only, where
    # the ladder turns a blown deadline into sound bounds; attaching it to
    # the operator pipeline too would make the whole query fail instead.
    evaluator = PartialLineageEvaluator(
        db, workers=args.workers,
        budget=None if args.degrade else budget,
    )
    if args.optimize:
        choice = choose_join_order(query, db)
        order = list(choice.order)
        print(f"optimised join order: {' , '.join(order)} "
              f"({choice.offending} offending)")
    else:
        order = args.join_order.split(",") if args.join_order else None
    if args.explain:
        print(explain(left_deep_plan(query, order), db))
        print()
    if args.top_k is not None and args.degrade:
        print("error: --top-k and --degrade are mutually exclusive",
              file=sys.stderr)
        return 2
    with _observed(args):
        start = time.perf_counter()
        if args.top_k is not None:
            from repro.dissociation import DissociationEvaluator, certified_top_k

            plan = left_deep_plan(query, order)
            result = evaluator.evaluate(plan)
            bounds = DissociationEvaluator(db).evaluate(plan)
            cert = certified_top_k(
                result, bounds, args.top_k,
                workers=args.workers, budget=budget,
            )
            elapsed = time.perf_counter() - start
            rows = [
                (
                    rank + 1,
                    ", ".join(map(str, a.row)) or "()",
                    round(a.probability, args.digits),
                    f"[{a.lower:.{args.digits}f}, {a.upper:.{args.digits}f}]",
                )
                for rank, a in enumerate(cert.answers)
            ]
            print(format_table(
                ("rank", "answer", "probability", "bounds"),
                rows, title=f"{query} — certified top-{cert.k}",
            ))
            print(f"\n{cert.certified_out} of {cert.total_answers} answers "
                  f"certified out by dissociation bounds alone; "
                  f"{cert.refined} refined exactly "
                  f"(threshold {cert.threshold:.{args.digits}f})")
            print(f"bounds {cert.bounds_seconds:.3f}s + refine "
                  f"{cert.refine_seconds:.3f}s; total {elapsed:.3f}s; "
                  f"{result.offending_count} offending tuples; "
                  f"network of {len(result.network)} nodes")
            return 0
        result = evaluator.evaluate_query(query, order)
        if args.degrade:
            answers = result.resilient_answer_probabilities(
                budget, timeout=args.chunk_timeout
            )
            elapsed = time.perf_counter() - start
            rows = [
                (
                    ", ".join(map(str, row)) or "()",
                    round(a.midpoint, args.digits),
                    f"[{a.lower:.{args.digits}f}, {a.upper:.{args.digits}f}]",
                    a.method,
                )
                for row, a in sorted(answers.items())
            ]
            print(format_table(
                ("answer", "probability", "bounds", "method"),
                rows, title=str(query),
            ))
            degraded = sum(1 for a in answers.values() if a.degraded)
            print(f"\n{len(answers)} answers in {elapsed:.3f}s; "
                  f"{degraded} degraded to bounds; "
                  f"{result.offending_count} offending tuples; "
                  f"network of {len(result.network)} nodes")
            return 0
        answers = result.answer_probabilities()
        elapsed = time.perf_counter() - start
        rows = [(", ".join(map(str, row)) or "()", round(p, args.digits))
                for row, p in sorted(answers.items())]
        print(format_table(("answer", "probability"), rows, title=str(query)))
        print(f"\n{len(answers)} answers in {elapsed:.3f}s; "
              f"{result.offending_count} offending tuples; "
              f"network of {len(result.network)} nodes; "
              f"{'data safe (fully extensional)' if result.is_data_safe else 'mixed evaluation'}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import build_explain_report

    if args.workload:
        if args.query not in TABLE1_QUERIES:
            print(f"error: --workload expects a Table 1 query name, one of "
                  f"{', '.join(sorted(TABLE1_QUERIES))}", file=sys.stderr)
            return 2
        bench = benchmark_query(args.query)
        params = WorkloadParams(
            N=args.n, m=args.m, fanout=args.fanout,
            r_f=args.rf, r_d=args.rd, seed=args.seed,
        )
        db = generate_database(params)
        query = bench.query
        order = (
            args.join_order.split(",")
            if args.join_order
            else list(bench.join_order)
        )
        print(f"generated {db.total_tuples()} tuples "
              f"(N={args.n}, m={args.m}, r_f={args.rf}, r_d={args.rd})")
    else:
        if not args.database:
            print("error: explain needs either --database DIR or --workload",
                  file=sys.stderr)
            return 2
        db = load_database(args.database)
        query = parse_query(args.query)
        order = args.join_order.split(",") if args.join_order else None
    budget = None
    if args.deadline is not None:
        from repro.resilience import QueryBudget

        budget = QueryBudget(deadline_seconds=args.deadline)
    registry = MetricsRegistry()
    with _observed(args):
        report, _ = build_explain_report(
            db,
            query,
            join_order=order,
            workers=args.workers,
            registry=registry,
            budget=budget,
            top_k=args.top_k,
        )
        print(report.format())
    if args.json:
        path = write_json_report(args.json, report.as_dict())
        print(f"wrote {path}")
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    from repro.circuit import CircuitCache, ScenarioBatch

    if args.workload:
        if args.query not in TABLE1_QUERIES:
            print(f"error: --workload expects a Table 1 query name, one of "
                  f"{', '.join(sorted(TABLE1_QUERIES))}", file=sys.stderr)
            return 2
        bench = benchmark_query(args.query)
        params = WorkloadParams(
            N=args.n, m=args.m, fanout=args.fanout,
            r_f=args.rf, r_d=args.rd, seed=args.seed,
        )
        db = generate_database(params)
        query = bench.query
        order = (
            args.join_order.split(",")
            if args.join_order
            else list(bench.join_order)
        )
    else:
        if not args.database:
            print("error: whatif needs either --database DIR or --workload",
                  file=sys.stderr)
            return 2
        db = load_database(args.database)
        query = parse_query(args.query)
        order = args.join_order.split(",") if args.join_order else None

    cache = CircuitCache()
    evaluator = PartialLineageEvaluator(db, circuit_cache=cache)
    with _observed(args):
        result = evaluator.evaluate_query(query, order)
        analysis = result.whatif()
        offending = result.conditioned_tuples
        print(f"{len(result.relation)} answers; "
              f"{len(offending)} offending tuples")
        answers = sorted(row for row, _, _ in result.relation.items())
        for row in answers[: args.limit]:
            sens = analysis.sensitivities(row, method=args.method)
            base = analysis.probability(row)
            label = ", ".join(map(str, row)) or "()"
            if not sens:
                print(f"\nanswer ({label}): p={base:.{args.digits}f}; "
                      f"no sensitive tuples")
                continue
            print(format_table(
                ("source", "row", "absent", "certain", "swing"),
                [(s.tuple.source, ", ".join(map(str, s.tuple.row)),
                  f"{s.when_absent:.{args.digits}f}",
                  f"{s.when_certain:.{args.digits}f}",
                  f"{s.swing:+.{args.digits}f}")
                 for s in sens[: args.top]],
                title=f"answer ({label}): p={base:.{args.digits}f}, "
                      f"top sensitivities [{args.method}]",
            ))
        if args.batch:
            import numpy as np

            rng = np.random.default_rng(args.seed)
            variables = tuple(
                analysis.variable_for(off) for off in offending
            )
            scenarios = ScenarioBatch(
                variables, rng.random((args.batch, len(variables)))
            )
            rows = []
            for row in answers[: args.limit]:
                start = time.perf_counter()
                probs = analysis.probability_batch(row, scenarios)
                elapsed = time.perf_counter() - start
                rows.append((
                    ", ".join(map(str, row)) or "()",
                    f"{args.batch / max(elapsed, 1e-9):.0f}",
                    f"{probs.mean():.{args.digits}f}",
                    f"{probs.min():.{args.digits}f}",
                    f"{probs.max():.{args.digits}f}",
                ))
            print()
            print(format_table(
                ("answer", "scenarios/s", "mean", "min", "max"),
                rows,
                title=f"batch re-scoring: {args.batch} random scenarios "
                      f"over {len(variables)} offending tuples",
            ))
            print(f"circuit cache: {cache.stats.hits} hits / "
                  f"{cache.stats.misses} misses, "
                  f"{cache.recompiles} recompiles")
    return 0


def _replay_flight(args: argparse.Namespace) -> list[dict]:
    """Replay Table 1 queries on a generated instance under the active flight
    recorder; returns the records the replay produced."""
    from repro.obs import telemetry

    params = WorkloadParams(
        N=args.n, m=args.m, fanout=3, r_f=0.1, r_d=1.0, seed=args.seed
    )
    db = generate_database(params)
    recorder = telemetry.current_recorder()
    before = recorder.recorded
    for name in args.queries:
        bench = benchmark_query(name)
        evaluator = PartialLineageEvaluator(db)
        result = evaluator.evaluate_query(bench.query, list(bench.join_order))
        result.answer_probabilities()
    produced = recorder.recorded - before
    return list(recorder.records)[-produced:] if produced else []


def _obs_records(args: argparse.Namespace) -> list[dict]:
    """Flight records for an ``obs`` subcommand: read ``--flight-log`` when
    given, otherwise replay a small workload to produce fresh ones."""
    from repro.obs import read_flight_log

    if args.flight_log:
        return read_flight_log(args.flight_log)
    return _replay_flight(args)


def cmd_obs_metrics(args: argparse.Namespace) -> int:
    from repro.obs import render_openmetrics, registry_from_records

    records = _obs_records(args)
    registry = registry_from_records(records)
    text = render_openmetrics(registry.snapshot())
    if args.out:
        import pathlib

        pathlib.Path(args.out).write_text(text)
        print(f"wrote OpenMetrics exposition to {args.out} "
              f"({len(records)} flight records)")
    else:
        print(text, end="")
    return 0


def cmd_obs_slo(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.obs import DEFAULT_SLO_TARGETS, slo_report_from_records

    overrides = {
        "latency_p50": args.p50,
        "latency_p95": args.p95,
        "latency_p99": args.p99,
        "error_rate": args.max_error_rate,
        "degradation_rate": args.max_degradation_rate,
    }
    targets = tuple(
        dataclasses.replace(t, threshold=overrides[t.name])
        if overrides.get(t.name) is not None else t
        for t in DEFAULT_SLO_TARGETS
    )
    records = _obs_records(args)
    report = slo_report_from_records(records, targets)
    if args.as_json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 0 if report.ok else 1


def cmd_obs_lint(args: argparse.Namespace) -> int:
    import pathlib

    from repro.obs import validate_openmetrics

    errors = validate_openmetrics(pathlib.Path(args.path).read_text())
    for error in errors:
        print(f"lint: {error}", file=sys.stderr)
    if not errors:
        print(f"{args.path}: valid OpenMetrics exposition")
    return 1 if errors else 0


def cmd_obs_validate(args: argparse.Namespace) -> int:
    from repro.obs import read_flight_log, validate_flight_records

    records = read_flight_log(args.path)
    errors = validate_flight_records(records)
    for error in errors:
        print(f"invalid: {error}", file=sys.stderr)
    if not errors:
        print(f"{args.path}: {len(records)} schema-valid flight records")
    return 1 if errors else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    hierarchical = is_hierarchical(query)
    strict = is_strictly_hierarchical(query)
    print(f"query: {query}")
    print(f"  hierarchical (safe):      {hierarchical}")
    print(f"  strictly hierarchical:    {strict} "
          f"({'bounded' if strict else 'unbounded'} lineage treewidth, Thm 4.2)")
    if hierarchical:
        try:
            plan = safe_plan(query)
            print(f"  safe plan:                {plan}")
        except UnsafePlanError as exc:
            print(f"  safe plan:                n/a ({exc})")
    else:
        print("  safe plan:                none (unsafe query; evaluation is "
              "data-dependent)")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    params = WorkloadParams(
        N=args.n, m=args.m, fanout=args.fanout,
        r_f=args.rf, r_d=args.rd, seed=args.seed,
    )
    db = generate_database(params)
    bench = benchmark_query(args.query)
    print(f"generated {db.total_tuples()} tuples "
          f"(N={args.n}, m={args.m}, r_f={args.rf}, r_d={args.rd})")
    if args.save:
        save_database(db, args.save)
        print(f"saved the instance to {args.save}")
    methods = [
        lambda db, bench: run_partial_lineage(
            db, bench, workers=args.workers
        ),
        run_partial_lineage_sqlite,
    ]
    if args.baseline:
        methods.append(run_full_lineage)
    if args.sample:
        # Reuse the workload seed so the sampler never falls back to an
        # unseeded random.Random() — benchmark runs stay reproducible.
        methods.append(
            lambda db, bench: run_sampling(
                db, bench, samples=args.samples, seed=args.seed
            )
        )
    with _observed(args):
        rows = []
        for method in methods:
            outcome = method(db, bench)
            rows.append(
                (
                    outcome.method,
                    "dnf" if outcome.timed_out else f"{outcome.seconds:.4f}",
                    outcome.offending or "-",
                    len(outcome.answers),
                    f"{outcome.samples_per_sec:.0f}" if outcome.samples_per_sec else "-",
                )
            )
        print(format_table(
            ("method", "seconds", "#offending", "#answers", "samples/s"),
            rows,
            title=f"query {args.query}: {bench.text}",
        ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.resilience import QueryBudget
    from repro.serve import AdmissionPolicy, ServeDaemon, Server

    if args.workload:
        db = generate_database(
            WorkloadParams(N=args.n, m=args.m, seed=args.seed)
        )
    elif args.database is not None:
        db = load_database(args.database)
    else:
        print("error: serve needs --dir DIR or --workload", file=sys.stderr)
        return 2
    template = None
    if args.max_network_nodes is not None or args.max_samples is not None:
        template = QueryBudget(
            max_network_nodes=args.max_network_nodes,
            max_samples=args.max_samples,
        )
    server = Server(
        db,
        policy=AdmissionPolicy(
            max_queue=args.max_queue, workers=args.serve_workers
        ),
        default_deadline=args.default_deadline,
        budget_template=template,
        pool_workers=args.workers,
        seed=args.seed,
    )
    for spec in args.prepare or []:
        name, sep, text = spec.partition("=")
        if not sep or not name or not text:
            print(f"error: --prepare wants NAME=QUERY, got {spec!r}",
                  file=sys.stderr)
            return 2
        server.prepare(name.strip(), text.strip())
    daemon = ServeDaemon(
        server, host=args.host, port=args.port, unix_path=args.socket
    )
    with _observed(args):
        address = daemon.address
        where = address if isinstance(address, str) else "{}:{}".format(*address)
        print(f"serving on {where} "
              f"({len(server.prepared)} prepared, "
              f"{args.serve_workers} workers, queue {args.max_queue})",
              flush=True)
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:
            print("\ndraining ...", flush=True)
        finally:
            clean = daemon.stop()
            print(f"drained {'cleanly' if clean else 'with stragglers'}")
    return 0


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace-event JSON of the run "
                             "(open in chrome://tracing or Perfetto)")
    parser.add_argument("--profile", action="store_true",
                        help="print the span tree with wall/CPU times after "
                             "the run")
    parser.add_argument("--flight-log", metavar="PATH",
                        help="sink the run's flight records (one JSON object "
                             "per evaluation) to PATH as JSONL")


def _add_replay_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--flight-log", metavar="PATH",
                        help="read flight records from this JSONL log "
                             "instead of replaying a workload")
    parser.add_argument("--queries", nargs="+", default=["P1"],
                        choices=sorted(TABLE1_QUERIES), metavar="Q",
                        help="[replay] Table 1 queries to run (default: P1)")
    parser.add_argument("--n", type=int, default=2, help="[replay] N")
    parser.add_argument("--m", type=int, default=40,
                        help="[replay] instance size m")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partial-lineage query evaluation over probabilistic "
                    "databases (EDBT 2010 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="evaluate a query over a CSV database")
    q.add_argument("database", help="directory of <Relation>.csv files")
    q.add_argument("query", help="datalog-style query text")
    q.add_argument("--join-order", help="comma-separated relation names")
    q.add_argument("--optimize", action="store_true",
                   help="search join orders minimising offending tuples")
    q.add_argument("--digits", type=int, default=6)
    q.add_argument("--explain", action="store_true",
                   help="print the annotated plan tree before evaluating")
    q.add_argument("--workers", type=int, default=None,
                   help="process-pool size for component-parallel final "
                        "inference (default: in-process)")
    q.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget for the whole query; without "
                        "--degrade a blown deadline is an error")
    q.add_argument("--degrade", action="store_true",
                   help="never fail on hard instances: answers that blow "
                        "the budget degrade to sound [lower, upper] bounds "
                        "(dissociation -> OBDD -> interval bounds -> "
                        "sampling)")
    q.add_argument("--top-k", type=int, default=None, metavar="K",
                   help="bounds-first top-k: rank answers by dissociation "
                        "enclosures and spend exact inference only on the "
                        "answers whose interval overlaps the k-th decision "
                        "boundary (identical result to exact-all ranking)")
    q.add_argument("--max-network-nodes", type=int, default=None,
                   help="cap on And-Or network growth during evaluation")
    q.add_argument("--max-samples", type=int, default=20_000,
                   help="Monte-Carlo samples for the degradation ladder's "
                        "sampling rung (default 20000)")
    q.add_argument("--chunk-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-dispatch timeout for the fault-tolerant pool "
                        "(with --degrade and --workers)")
    _add_observability_flags(q)
    q.set_defaults(func=cmd_query)

    e = sub.add_parser(
        "explain",
        help="full evaluation report for one query: offending tuples, "
             "network components, per-component engine choices, cache "
             "hit rates",
    )
    e.add_argument("query",
                   help="datalog-style query text (with --database), or a "
                        "Table 1 query name (with --workload)")
    e.add_argument("--database", metavar="DIR",
                   help="directory of <Relation>.csv files")
    e.add_argument("--workload", action="store_true",
                   help="treat QUERY as a Table 1 name and explain it on a "
                        "generated Section 6.1 instance")
    e.add_argument("--n", type=int, default=2, help="[workload] N")
    e.add_argument("--m", type=int, default=50, help="[workload] m")
    e.add_argument("--fanout", type=int, default=3)
    e.add_argument("--rf", type=float, default=0.1)
    e.add_argument("--rd", type=float, default=1.0)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--join-order", help="comma-separated relation names")
    e.add_argument("--workers", type=int, default=None,
                   help="recorded pool size (the report itself solves "
                        "in-process to measure per-slice timings)")
    e.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="solve every slice through the degradation ladder "
                        "under this wall-clock budget; the report then "
                        "records ladder rungs and degraded-answer counts")
    e.add_argument("--top-k", type=int, default=None, metavar="K",
                   help="add the dissociation-bounds section: per-answer "
                        "enclosure widths and the bounds-first top-K "
                        "certification with its time saved vs exact-all")
    e.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON")
    _add_observability_flags(e)
    e.set_defaults(func=cmd_explain)

    a = sub.add_parser("analyze", help="static safety analysis of a query")
    a.add_argument("query")
    a.set_defaults(func=cmd_analyze)

    wf = sub.add_parser(
        "whatif",
        help="sensitivity analysis over offending tuples: per-answer swing "
             "ranking plus vectorized batch re-scoring of random scenarios",
    )
    wf.add_argument("query",
                    help="datalog-style query text (with --database), or a "
                         "Table 1 query name (with --workload)")
    wf.add_argument("--database", metavar="DIR",
                    help="directory of <Relation>.csv files")
    wf.add_argument("--workload", action="store_true",
                    help="treat QUERY as a Table 1 name and analyse it on a "
                         "generated Section 6.1 instance")
    wf.add_argument("--n", type=int, default=2, help="[workload] N")
    wf.add_argument("--m", type=int, default=50, help="[workload] m")
    wf.add_argument("--fanout", type=int, default=3)
    wf.add_argument("--rf", type=float, default=0.1)
    wf.add_argument("--rd", type=float, default=1.0)
    wf.add_argument("--seed", type=int, default=0,
                    help="workload generator and scenario-sampler seed")
    wf.add_argument("--join-order", help="comma-separated relation names")
    wf.add_argument("--method", default="auto",
                    choices=("auto", "circuit", "obdd"),
                    help="sensitivity engine: batched circuit gradients "
                         "(default) or the scalar OBDD oracle")
    wf.add_argument("--batch", type=int, default=0, metavar="N",
                    help="also re-score N random probability scenarios per "
                         "answer through the compiled circuit")
    wf.add_argument("--limit", type=int, default=5,
                    help="max answers to analyse (default 5)")
    wf.add_argument("--top", type=int, default=10,
                    help="sensitivities shown per answer (default 10)")
    wf.add_argument("--digits", type=int, default=6)
    _add_observability_flags(wf)
    wf.set_defaults(func=cmd_whatif)

    w = sub.add_parser("workload", help="run a Table 1 benchmark query")
    w.add_argument("query", choices=sorted(TABLE1_QUERIES))
    w.add_argument("--n", type=int, default=2)
    w.add_argument("--m", type=int, default=50)
    w.add_argument("--fanout", type=int, default=3)
    w.add_argument("--rf", type=float, default=0.1)
    w.add_argument("--rd", type=float, default=1.0)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--baseline", action="store_true",
                   help="also run the full-lineage DPLL competitor")
    w.add_argument("--sample", action="store_true",
                   help="also run Karp-Luby sampling")
    w.add_argument("--samples", type=int, default=5000,
                   help="Monte-Carlo samples for --sample (default 5000)")
    w.add_argument("--save", metavar="DIR",
                   help="persist the generated instance as CSV files")
    w.add_argument("--workers", type=int, default=None,
                   help="process-pool size for component-parallel final "
                        "inference (default: in-process)")
    _add_observability_flags(w)
    w.set_defaults(func=cmd_workload)

    srv = sub.add_parser(
        "serve",
        help="run the fault-tolerant query-service daemon over a TCP or "
             "unix socket (line-delimited JSON protocol)",
    )
    srv.add_argument("--dir", dest="database", default=None, metavar="DIR",
                     help="CSV database directory to serve")
    srv.add_argument("--workload", action="store_true",
                     help="serve a generated Section 6.1 instance instead "
                          "of a CSV directory")
    srv.add_argument("--n", type=int, default=2, help="[workload] N")
    srv.add_argument("--m", type=int, default=100,
                     help="[workload] instance size m")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7432,
                     help="TCP port (0 picks a free port; default 7432)")
    srv.add_argument("--socket", default=None, metavar="PATH",
                     help="serve on a unix-domain socket instead of TCP")
    srv.add_argument("--serve-workers", type=int, default=4,
                     help="concurrent execution threads (default 4)")
    srv.add_argument("--max-queue", type=int, default=32,
                     help="bounded admission queue depth (default 32)")
    srv.add_argument("--default-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="deadline applied to requests that bring none")
    srv.add_argument("--max-network-nodes", type=int, default=None,
                     help="global And-Or network size cap per request")
    srv.add_argument("--max-samples", type=int, default=None,
                     help="global sampling cap for the degradation ladder")
    srv.add_argument("--workers", type=int, default=None,
                     help="process-pool size for degraded inference")
    srv.add_argument("--prepare", action="append", metavar="NAME=QUERY",
                     help="prepare a statement at startup (repeatable)")
    _add_observability_flags(srv)
    srv.set_defaults(func=cmd_serve)

    o = sub.add_parser(
        "obs",
        help="observability: OpenMetrics export, SLO report, and linters "
             "for flight logs and metric expositions",
    )
    osub = o.add_subparsers(dest="obs_command", required=True)

    om = osub.add_parser(
        "metrics",
        help="render an OpenMetrics/Prometheus text exposition from a "
             "flight log (or a fresh workload replay)",
    )
    _add_replay_flags(om)
    om.add_argument("--out", metavar="PATH",
                    help="write the exposition to PATH instead of stdout")
    om.set_defaults(func=cmd_obs_metrics)

    osl = osub.add_parser(
        "slo",
        help="evaluate latency/error/degradation objectives over a flight "
             "log (or a fresh workload replay); exits nonzero on violation",
    )
    _add_replay_flags(osl)
    osl.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the report as JSON")
    osl.add_argument("--p50", type=float, default=None, metavar="MS",
                     help="override the p50 latency objective (milliseconds)")
    osl.add_argument("--p95", type=float, default=None, metavar="MS",
                     help="override the p95 latency objective (milliseconds)")
    osl.add_argument("--p99", type=float, default=None, metavar="MS",
                     help="override the p99 latency objective (milliseconds)")
    osl.add_argument("--max-error-rate", type=float, default=None,
                     metavar="RATE", help="override the error-rate objective")
    osl.add_argument("--max-degradation-rate", type=float, default=None,
                     metavar="RATE",
                     help="override the degradation-rate objective")
    osl.set_defaults(func=cmd_obs_slo)

    ol = osub.add_parser(
        "lint",
        help="promtool-style lint of an OpenMetrics text exposition file",
    )
    ol.add_argument("path")
    ol.set_defaults(func=cmd_obs_lint)

    ov = osub.add_parser(
        "validate", help="schema-validate a JSONL flight log"
    )
    ov.add_argument("path")
    ov.set_defaults(func=cmd_obs_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
