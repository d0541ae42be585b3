"""The library-call workloads: ``table1_sparse``, ``table1_dense``,
``hard_bounded``.

Operations call the layers' public functions directly, each call inside a
span of the benchmark's recorder, so the same code path is timed untraced
(recorder off) and traced. The per-component numbers come from replaying
``answer_probabilities``' sub-steps — components, extract, cost probe,
solve — on a fresh network outside any timed operation.
"""

from __future__ import annotations

import pickle
import shutil
import subprocess
import sys
import time

from repro.core.executor import PartialLineageEvaluator
from repro.core.network import EPSILON
from repro.core.plan import left_deep_plan
from repro.core.treeprop import is_tree_factorable, tree_marginals
from repro.dissociation import DissociationEvaluator, certified_top_k
from repro.io import load_database, save_database
from repro.perf import SubformulaCache
from repro.perf.parallel import estimate_component, solve_slice
from repro.query.parser import parse_query
from repro.resilience import QueryBudget

from benchmarks.e2e import golden, inputs, spec
from benchmarks.e2e.harness import (
    Context, Report, child_env, mean, ms, p50, repro_cli, run_for,
)
from benchmarks.e2e.spans import OFF, Recorder


def _keyed(answers: dict) -> dict[str, float]:
    return {inputs.answer_key(row): p for row, p in answers.items()}


def _plan(query_name: str):
    text, order = spec.QUERIES[query_name]
    return left_deep_plan(parse_query(text), list(order))


def _operator_kind(operator: str) -> str:
    """``OperatorStat.operator`` is the plan node's text."""
    if operator.startswith("π["):
        return "project"
    if operator.startswith("σ["):
        return "select"
    if operator.startswith("("):
        return "join"
    return "scan"


class Table1:
    """Cold and warm library sweeps over the workload's Table 1 queries; on
    ``table1_sparse`` also the ``repro query`` subprocess."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.spec = spec.WORKLOADS[ctx.workload]
        self.dataset = self.spec.datasets[0]
        self.queries = inputs.data_spec(self.dataset, ctx.quick).queries
        self.has_cli = self.spec.alt_op == "cli_query"
        self.csv_dir = ctx.tmp / "csv"

    # --------------------------------------------------------------- set-up
    def setup(self) -> None:
        ctx = self.ctx
        self.db = inputs.build_checked(
            self.dataset, ctx.instance, ctx.quick, ctx.pins
        )
        self.truth = golden.load(self.dataset, ctx.instance, ctx.quick)["answers"]["A"]
        if self.has_cli:
            save_database(self.db, self.csv_dir)
        self.plans = {q: _plan(q) for q in self.queries}
        self.warm_evaluator = PartialLineageEvaluator(self.db)
        self.warm_cache = SubformulaCache()

    def close(self) -> None:
        shutil.rmtree(self.csv_dir, ignore_errors=True)

    # ----------------------------------------------------------- operations
    def cold_sweep(self, rec):
        """Per query: parse, plan, fresh evaluator, exact answers. Nothing
        is shared between queries or sweeps."""
        answers, results = {}, {}
        for q in self.queries:
            text, order = spec.QUERIES[q]
            with rec.span("query.parse"):
                query = parse_query(text)
            with rec.span("plan.build"):
                plan = left_deep_plan(query, list(order))
            with rec.span("executor.evaluate", query=q):
                results[q] = PartialLineageEvaluator(self.db).evaluate(plan)
            with rec.span("inference.answer", query=q):
                answers[q] = results[q].answer_probabilities()
        return answers, results

    def warm_sweep(self, rec):
        """Plans prepared; one evaluator (warm base-encode cache) and one
        ``SubformulaCache`` kept across sweeps."""
        answers, results = {}, {}
        for q in self.queries:
            with rec.span("executor.evaluate", query=q):
                results[q] = self.warm_evaluator.evaluate(self.plans[q])
            with rec.span("inference.answer", query=q):
                answers[q] = results[q].answer_probabilities(cache=self.warm_cache)
        return answers, results

    def cli_query(self, rec):
        """``repro query`` on the CSV dump of the same database: the wall
        time of the process, exit 0, its printed answers parsed."""
        text, order = spec.QUERIES["P1"]
        with rec.span("cli.process"):
            done = subprocess.run(
                repro_cli("query", str(self.csv_dir), text,
                          "--join-order", ",".join(order)),
                env=child_env(), capture_output=True, text=True, timeout=120,
            )
        if done.returncode != 0:
            raise RuntimeError(f"repro query exited {done.returncode}: {done.stderr}")
        lines = done.stdout.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
        answers = {}
        for line in lines[first:]:
            if not line.strip():
                break
            row, p = line.rsplit(None, 1)
            answers[tuple(v.strip() for v in row.split(","))] = float(p)
        return {"P1": answers}, None

    def _timed(self, report: Report, seconds: float, kind: str, rec=OFF,
               min_ops: int = 3) -> tuple[list[float], float]:
        """Run one kind of operation for *seconds*, checking every output."""
        op = getattr(self, kind)
        relative = golden.CLI_RELATIVE_TOLERANCE if kind == "cli_query" else 0.0

        def run(i):
            with rec.span(kind):
                return op(rec)

        def check(i, out):
            answers, self.last_results = out
            report.op(f"{kind}#{i}", [
                f"{q} {problem}" for q, got in answers.items()
                for problem in golden.check_exact(
                    self.truth[q], _keyed(got), relative)
            ])

        return run_for(seconds, run, check, min_ops=min_ops)

    def warmup(self, report: Report, traced: bool) -> None:
        """Not timed: the first cold sweep and first two warm sweeps pay the
        lazy imports inside ``answer_probabilities`` and the base encode."""
        self._timed(report, 0.0, "cold_sweep", min_ops=1)
        if traced or self.spec.alt_op == "warm_sweep":
            self._timed(report, 0.0, "warm_sweep", min_ops=2)

    # ------------------------------------------------------------- untraced
    def untraced(self, report: Report, seconds: float) -> None:
        w = self.spec
        floor = 2 if self.ctx.quick else 3
        op_times, op_wall = self._timed(
            report, seconds * w.op_share, w.op, min_ops=floor)
        alt_times, _ = self._timed(
            report, seconds * (1 - w.op_share), w.alt_op, min_ops=floor)
        report.set(
            op_p50_ms=ms(p50(op_times)),
            alt_op_p50_ms=ms(p50(alt_times)),
            goodput_ops_s=len(op_times) / op_wall,
            exact_share=1.0,  # answer_probabilities is exact or raises
        )

    # --------------------------------------------------------------- traced
    def traced(self, report: Report, seconds: float, rec: Recorder) -> None:
        kinds = ["cold_sweep", "warm_sweep"] + ["cli_query"] * self.has_cli
        share = 0.35 * seconds / len(kinds)
        reference = {
            kind: self._timed(report, share, kind, min_ops=2)[0] for kind in kinds
        }
        report.set(
            cold_sweep_p50_ms=ms(p50(reference["cold_sweep"])),
            warm_sweep_p50_ms=ms(p50(reference["warm_sweep"])),
        )

        warm_before = (self.warm_cache.stats.hits, self.warm_cache.stats.lookups)
        cold, _ = self._timed(report, 0.2 * seconds, "cold_sweep", rec, 2)
        cold_results = self.last_results
        self._timed(report, 0.15 * seconds, "warm_sweep", rec, 2)
        hits = self.warm_cache.stats.hits - warm_before[0]
        lookups = self.warm_cache.stats.lookups - warm_before[1]

        def per_sweep(root: str, name: str) -> float:
            """Median over sweeps of the time inside spans *name*."""
            totals: dict[int, float] = {}
            for span in rec.spans:
                if (span.name == name and span.parent >= 0
                        and rec.spans[span.parent].name == root):
                    totals[span.op] = totals.get(span.op, 0.0) + span.seconds
            return ms(p50(totals.values()))

        evaluate_cold = per_sweep("cold_sweep", "executor.evaluate")
        evaluate_warm = per_sweep("warm_sweep", "executor.evaluate")
        answer_cold = per_sweep("cold_sweep", "inference.answer")
        report.set(**{
            "query.parse_ms": per_sweep("cold_sweep", "query.parse"),
            "plan.build_ms": per_sweep("cold_sweep", "plan.build"),
            "executor.evaluate_cold_ms": evaluate_cold,
            "executor.evaluate_warm_ms": evaluate_warm,
            "executor.encode_ms": evaluate_cold - evaluate_warm,
            "inference.answer_cold_ms": answer_cold,
            "inference.answer_warm_ms": per_sweep("warm_sweep", "inference.answer"),
            "cache.subformula_hit_rate": hits / lookups if lookups else 0.0,
            "trace.overhead_share": p50(cold) / p50(reference["cold_sweep"]) - 1.0,
            "trace.coverage_share": rec.coverage(("cold_sweep", "warm_sweep")),
        })
        self._operator_metrics(report, cold_results)
        self._replay_inference(report, answer_cold)
        if self.has_cli:
            self._cli_metrics(report, p50(reference["cli_query"]))

    def _operator_metrics(self, report: Report, results: dict) -> None:
        """``OperatorStat`` of one cold sweep, grouped by operator kind."""
        by_kind = dict.fromkeys(("scan", "join", "project", "select"), 0.0)
        rows_out = 0
        for result in results.values():
            for stat in result.stats:
                by_kind[_operator_kind(stat.operator)] += stat.seconds
                rows_out += stat.output_size
        report.set(**{f"executor.{k}_ms": ms(v) for k, v in by_kind.items()})
        report.set(**{
            "executor.rows_out": rows_out,
            "executor.offending": sum(r.offending_count for r in results.values()),
            "network.nodes": sum(len(r.network) for r in results.values()),
        })

    def _replay_inference(self, report: Report, answer_cold_ms: float) -> None:
        """The sub-steps of ``answer_probabilities(engine="auto")`` on a
        fresh network per query, each timed on its own; sums over one sweep."""
        t = dict.fromkeys(
            ("treecheck", "components", "extract", "probe", "pickle",
             "tree", "ve", "dpll"), 0.0)
        n = dict.fromkeys(("tree", "ve", "dpll"), 0)
        components = largest = pickled = 0

        def timed(key, fn, *args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            t[key] += time.perf_counter() - start
            return out

        for q in self.queries:
            result = PartialLineageEvaluator(self.db).evaluate(self.plans[q])
            net = result.network
            if timed("treecheck", is_tree_factorable, net):
                timed("tree", tree_marginals, net, check=False)
                n["tree"] += 1
                continue
            comps = timed("components", net.components)
            components += comps.count
            largest = max(largest, int(comps.sizes().max(initial=0)))
            by_label: dict[int, list[int]] = {}
            for _row, node, _p in result.relation.items():
                if node != EPSILON:
                    by_label.setdefault(comps.of(node), []).append(node)
            cache = SubformulaCache()
            for targets in by_label.values():
                targets = list(dict.fromkeys(targets))
                part = timed("extract", net.extract_component, targets[0])
                narrow, _cost = timed("probe", estimate_component, part.network)
                # the engine solve_slice("auto") will take, decided with the
                # same public predicates it uses
                path = ("tree" if is_tree_factorable(part.network)
                        else "ve" if narrow else "dpll")
                timed(path, solve_slice, part.network,
                      [part.to_sub(v) for v in targets],
                      "auto", cache=cache, narrow=narrow)
                n[path] += 1
                pickled += len(timed("pickle", pickle.dumps, part))
        covered = sum(ms(t[k]) for k in t if k != "pickle")
        report.set(**{
            "network.components": components,
            "network.largest_component": largest,
            "network.components_ms": ms(t["components"]),
            "network.extract_ms": ms(t["extract"]),
            "inference.treecheck_ms": ms(t["treecheck"]),
            "parallel.probe_ms": ms(t["probe"]),
            "parallel.solve_tree_ms": ms(t["tree"]),
            "parallel.solve_ve_ms": ms(t["ve"]),
            "parallel.solve_dpll_ms": ms(t["dpll"]),
            "parallel.components_tree": n["tree"],
            "parallel.components_ve": n["ve"],
            "parallel.components_dpll": n["dpll"],
            "parallel.slice_pickle_bytes": pickled,
            "parallel.slice_pickle_ms": ms(t["pickle"]),
            "inference.unattributed_share":
                1.0 - covered / answer_cold_ms if answer_cold_ms else 0.0,
        })

    def _cli_metrics(self, report: Report, cli_seconds: float) -> None:
        loads = []
        for _ in range(2):
            start = time.perf_counter()
            loaded = load_database(self.csv_dir)
            loads.append(time.perf_counter() - start)
        imports = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           env=child_env(), check=True, timeout=120)
            imports.append(time.perf_counter() - start)
        report.set(**{
            "cli_query_p50_s": cli_seconds,
            "io.load_ms": ms(p50(loads)),
            "io.load_rows": loaded.total_tuples(),
            "cli.import_ms": ms(p50(imports)),
            "cli.eval_ms": ms(cli_seconds - p50(imports) - p50(loads)),
        })


class HardBounded:
    """Where exact inference is out of reach: the degradation ladder under a
    DPLL call cap, and bounds-first certified top-k.

    Which rung answers, and how many enclosures overlap the top-k boundary,
    differ from instance to instance by more than any bound could absorb, so
    both operations cycle over all pinned instances (the seed sets where the
    rotation starts) and every number is a mean over instances — of
    per-instance medians for times, of the last operation's fields for counts.
    """

    KINDS = ("ladder", "topk")

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.spec = spec.WORKLOADS[ctx.workload]

    def setup(self) -> None:
        ctx = self.ctx
        self.dbs = {
            kind: [inputs.build_checked(kind, s, ctx.quick, ctx.pins)
                   for s in spec.PINNED_SEEDS]
            for kind in self.KINDS
        }
        self.truth = {
            kind: [golden.load(kind, s, ctx.quick) for s in spec.PINNED_SEEDS]
            for kind in self.KINDS
        }
        self.plans = {"ladder": _plan("P2"), "topk": _plan("P1")}
        self.k = inputs.data_spec("topk", ctx.quick).k

    def close(self) -> None:
        pass

    def instance_of(self, i: int) -> int:
        """Index into ``PINNED_SEEDS`` of operation *i*'s instance."""
        return (self.ctx.seed + i) % spec.INSTANCES

    # ----------------------------------------------------------- operations
    def ladder(self, i: int, rec=OFF):
        db = self.dbs["ladder"][self.instance_of(i)]
        with rec.span("executor.evaluate"):
            result = PartialLineageEvaluator(db).evaluate(self.plans["ladder"])
        with rec.span("resilience.ladder"):
            return result.resilient_answer_probabilities(
                QueryBudget(dpll_max_calls=spec.LADDER_DPLL_CAP)
            )

    def topk(self, i: int, rec=OFF):
        db, plan = self.dbs["topk"][self.instance_of(i)], self.plans["topk"]
        with rec.span("executor.evaluate"):
            result = PartialLineageEvaluator(db).evaluate(plan)
        with rec.span("dissociation.bounds"):
            bounds = DissociationEvaluator(db).evaluate(plan)
        with rec.span("topk.certify"):
            cert = certified_top_k(result, bounds, self.k)
        return bounds, cert

    # --------------------------------------------------------------- checks
    def check_ladder(self, i: int, answers: dict) -> list[str]:
        truth = self.truth["ladder"][self.instance_of(i)]["answers"]["A"]["P2"]
        return golden.check_enclosures(truth, {
            inputs.answer_key(row): (a.lower, a.upper, a.exact)
            for row, a in answers.items()
        })

    def check_topk(self, i: int, out) -> list[str]:
        bounds, cert = out
        record = self.truth["topk"][self.instance_of(i)]
        truth, order = record["answers"]["A"]["P1"], record["topk"]
        return (
            golden.check_sequence(
                order, [inputs.answer_key(a.row) for a in cert.answers])
            + golden.check_exact(
                {k: truth[k] for k in order},
                {inputs.answer_key(a.row): a.probability for a in cert.answers})
            + golden.check_enclosures(truth, {
                inputs.answer_key(row): (b.lower, b.upper, False)
                for row, b in bounds.bounds.items()
            })
        )

    # ------------------------------------------------------------ the phases
    def _phase(self, report: Report, seconds: float, kind: str, rec=OFF,
               min_ops: int = spec.INSTANCES):
        """Operations of one kind for *seconds*. Returns the mean over
        instances of the per-instance median time, operations per second
        (both over whole rotations: instances differ in cost), and each
        instance's last output."""
        op, check = getattr(self, kind), getattr(self, f"check_{kind}")
        last: dict[int, object] = {}

        def run(i):
            with rec.span(kind):
                return op(i, rec)

        def verify(i, out):
            seed = spec.PINNED_SEEDS[self.instance_of(i)]
            report.op(f"{kind}#{i}[s{seed}]", check(i, out))
            last[self.instance_of(i)] = out

        times, _ = run_for(seconds, run, verify, min_ops=min_ops)
        whole = max(len(times) - len(times) % spec.INSTANCES, 1)
        medians = [p50(times[j:whole:spec.INSTANCES])
                   for j in range(min(spec.INSTANCES, whole))]
        return mean(medians), whole / sum(times[:whole]), last

    def warmup(self, report: Report, traced: bool) -> None:
        for kind in self.KINDS:
            self._phase(report, 0.0, kind, min_ops=1)

    @staticmethod
    def _exact_share(last: dict) -> float:
        return mean(mean(a.exact for a in ans.values()) for ans in last.values())

    def untraced(self, report: Report, seconds: float) -> None:
        w = self.spec
        ladder, goodput, last = self._phase(report, seconds * w.op_share, "ladder")
        topk, _, _ = self._phase(report, seconds * (1 - w.op_share), "topk")
        report.set(
            op_p50_ms=ms(ladder),
            alt_op_p50_ms=ms(topk),
            goodput_ops_s=goodput,
            exact_share=self._exact_share(last),
        )

    def traced(self, report: Report, seconds: float, rec: Recorder) -> None:
        ref_ladder, _, last = self._phase(report, 0.3 * seconds, "ladder")
        ref_topk, _, last_topk = self._phase(report, 0.2 * seconds, "topk")
        certs = [cert for _bounds, cert in last_topk.values()]
        widths = [[b.width for b in bounds.bounds.values()]
                  for bounds, _cert in last_topk.values()]
        report.set(**{
            "ladder_p50_ms": ms(ref_ladder),
            "ladder_exact_share": self._exact_share(last),
            "ladder_mean_width": mean(
                mean(a.width for a in ans.values()) for ans in last.values()),
            "topk_p50_ms": ms(ref_topk),
            "topk_refined_share": mean(c.refined / c.total_answers for c in certs),
            "dissociation.mean_width": mean(mean(w) for w in widths),
            "dissociation.max_width": max(max(w) for w in widths),
            "dissociation.dissociated": mean(
                bounds.dissociated for bounds, _cert in last_topk.values()),
            "topk.refine_ms": ms(mean(c.refine_seconds for c in certs)),
            "topk.refined": mean(c.refined for c in certs),
            "topk.certified_out": mean(c.certified_out for c in certs),
        })

        traced_ladder, _, last = self._phase(report, 0.3 * seconds, "ladder", rec)
        self._phase(report, 0.2 * seconds, "topk", rec)
        report.set(**{
            "ladder.total_ms": ms(mean(rec.seconds_of("resilience.ladder"))),
            "executor.evaluate_cold_ms": ms(mean(rec.seconds_of("executor.evaluate"))),
            "dissociation.bounds_ms": ms(mean(rec.seconds_of("dissociation.bounds"))),
            "trace.overhead_share": traced_ladder / ref_ladder - 1.0,
            "trace.coverage_share": rec.coverage(self.KINDS),
        })
        self._rung_metrics(report, last)

    def _rung_metrics(self, report: Report, last: dict[int, dict]) -> None:
        """Per rung, from ``AnswerResult.steps`` of one op per instance."""
        seconds = dict.fromkeys(spec.RUNGS, 0.0)
        answers = dict.fromkeys(spec.RUNGS, 0)
        wasted = 0.0
        exact_ok = exact_tried = 0
        for result in last.values():
            seen = set()
            for answer in result.values():
                answers[answer.method] += 1
                if id(answer.steps) in seen:  # one list per component
                    continue
                seen.add(id(answer.steps))
                for step in answer.steps:
                    seconds[step.rung] += step.seconds
                    if step.rung == "exact" and step.outcome != "skipped":
                        exact_tried += 1
                        exact_ok += step.outcome == "ok"
                        if step.outcome == "failed":
                            wasted += step.seconds
        n = len(last)
        for rung in spec.RUNGS:
            report.set(**{
                f"ladder.rung.{rung}.ms": ms(seconds[rung] / n),
                f"ladder.rung.{rung}.answers": answers[rung] / n,
            })
        report.set(**{
            "ladder.exact_wasted_ms": ms(wasted / n),
            "ladder.exact_success_ratio":
                exact_ok / exact_tried if exact_tried else 0.0,
        })
