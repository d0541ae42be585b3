"""The request-path workloads: ``serve_read`` and ``serve_readwrite``.

A ``repro serve`` subprocess holds the database and five prepared
statements; closed-loop ``ServeClient`` connections (one thread each, never
more than two) send ``query`` requests round-robin over the statements. On
``serve_readwrite`` every fifth operation of connection 0 is a transaction
that flips one tuple's probability, so reads race commits and every read
must equal the oracle's state A or state B in full.

The daemon listens on a loopback TCP port it picks itself: a unix socket
inside the checkout could exceed the 108-byte ``sun_path`` limit.
"""

from __future__ import annotations

import pathlib
import select
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass

from repro.core.executor import PartialLineageEvaluator
from repro.core.plan import left_deep_plan
from repro.io import save_database
from repro.perf import SubformulaCache
from repro.query.parser import parse_query
from repro.serve import ServeClient, Server, protocol
from repro.serve.scheduler import AdmissionPolicy

from benchmarks.e2e import golden, inputs, spec
from benchmarks.e2e.harness import (
    Context, Report, child_env, mean, ms, p50, p95, repro_cli,
)
from benchmarks.e2e.spans import OFF, Recorder

STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0


class Daemon:
    """A ``repro serve`` subprocess and its lifetime."""

    def __init__(self, csv_dir: pathlib.Path, statements) -> None:
        command = repro_cli(
            "serve", "--dir", str(csv_dir), "--host", "127.0.0.1", "--port", "0",
            "--serve-workers", str(spec.SERVE_WORKERS),
        )
        for name in statements:
            command += ["--prepare", f"{name}={spec.QUERIES[name][0]}"]
        self.proc = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            self.address = self._read_address()
        except BaseException:
            self.kill()
            raise

    def _read_address(self) -> tuple[str, int]:
        """The daemon prints ``serving on HOST:PORT (...)`` once it listens."""
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"repro serve did not come up: {line!r}")
        host, _, port = line.split()[2].rpartition(":")
        return host, int(port)

    def connect(self) -> ServeClient:
        return ServeClient(self.address, timeout=60.0)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the daemon, MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """``shutdown`` verb, then wait; kill on timeout or error."""
        try:
            if self.proc.poll() is None:
                with self.connect() as client:
                    client.shutdown(timeout=SHUTDOWN_TIMEOUT)
                self.proc.wait(timeout=SHUTDOWN_TIMEOUT)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Read:
    statement: str
    end: float
    seconds: float
    response: dict


def _roundtrip(read: Read) -> float:
    return read.seconds


def typical(reads: list[Read], value=_roundtrip) -> float:
    """Mean over statements of the per-statement median of *value*. The
    five statements cost 2-3x apart, so the plain median of a round-robin
    mix sits on a boundary between two of them and jumps from run to run."""
    by_statement: dict[str, list[float]] = {}
    for read in reads:
        by_statement.setdefault(read.statement, []).append(value(read))
    return mean(p50(values) for values in by_statement.values())


def _answers(response: dict) -> dict[str, float]:
    return {
        inputs.answer_key(a["row"]): a["probability"] for a in response["answers"]
    }


class Serve:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.spec = spec.WORKLOADS[ctx.workload]
        self.writes = self.spec.alt_op == "read_after_commit"
        self.statements = inputs.data_spec("serve", ctx.quick).queries
        self.csv_dir = ctx.tmp / "csv"
        self.daemon: Daemon | None = None
        self.clients: list[ServeClient] = []

    # --------------------------------------------------------------- set-up
    def setup(self) -> None:
        ctx = self.ctx
        self.db = inputs.build_checked("serve", ctx.instance, ctx.quick, ctx.pins)
        self.truth = golden.load("serve", ctx.instance, ctx.quick)["answers"]
        self.p_a, self.p_b = inputs.state_b_probability(self.db)
        self.in_state_b = False
        save_database(self.db, self.csv_dir)
        self.daemon = Daemon(self.csv_dir, self.statements)
        self.clients = [self.daemon.connect() for _ in range(spec.SERVE_CONNECTIONS)]
        self.session = self.clients[0].require("open_session")["session"]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        shutil.rmtree(self.csv_dir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def warmup(self, report: Report, traced: bool) -> None:
        """One pass over the statements: first requests pay lazy imports and
        the base encode."""
        reads = [self._read(self.clients[0], s, OFF) for s in self.statements]
        self._check_reads(report, "warmup", reads)

    # ----------------------------------------------------------- operations
    def _read(self, client: ServeClient, statement: str, rec) -> Read:
        with rec.span("serve.roundtrip", statement=statement):
            start = time.perf_counter()
            response = client.query(
                statement, mode="auto", deadline=spec.SERVE_DEADLINE
            )
            end = time.perf_counter()
            rec.add("serve.execute", end - response["seconds"], end)
        return Read(statement, end, end - start, response)

    def _commit(self, client: ServeClient, rec) -> float:
        """One transaction: flip the written tuple to the other state."""
        target = self.p_a if self.in_state_b else self.p_b
        with rec.span("serve.commit"):
            start = time.perf_counter()
            client.begin(self.session)
            client.set_prob(self.session, spec.WRITE_RELATION,
                            spec.WRITE_ROW, target)
            client.commit(self.session)
            seconds = time.perf_counter() - start
        self.in_state_b = not self.in_state_b
        return seconds

    def _load(self, seconds: float, connections: int, rec, *, writes: bool,
              poll_stats: bool = False):
        """Closed loop on *connections* clients for *seconds*. Returns the
        reads (in completion order), the commit times, the wall time and the
        deepest scheduler queue seen by the ``stats`` polls."""
        reads: list[list[Read]] = [[] for _ in range(connections)]
        commits: list[float] = []
        errors: list[BaseException] = []
        depth = [0]
        begin = time.perf_counter()
        deadline = begin + seconds
        floor = (4 if self.ctx.quick else 2) * len(self.statements)

        def client_loop(c: int) -> None:
            client = self.clients[c]
            i = 0
            try:
                while time.perf_counter() < deadline or len(reads[c]) < floor:
                    if writes and c == 0 and i % spec.WRITE_EVERY == spec.WRITE_EVERY - 1:
                        commits.append(self._commit(client, rec))
                    else:
                        statement = self.statements[(i + c) % len(self.statements)]
                        reads[c].append(self._read(client, statement, rec))
                    if poll_stats and c == 0 and i % 20 == 0:
                        queued = client.stats()["scheduler"]["queued"]
                        depth[0] = max(depth[0], queued)
                    i += 1
            except BaseException as exc:  # reported by the caller's thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client_loop, args=(c,)) for c in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        if errors:
            raise errors[0]
        merged = sorted((r for rs in reads for r in rs), key=lambda r: r.end)
        return merged, commits, wall, depth[0]

    # --------------------------------------------------------------- checks
    def _check_reads(self, report: Report, phase: str, reads: list[Read]) -> int:
        """Every read is exact and equals oracle state A (or B, once the
        workload writes) in full; returns the number that did."""
        states = ("A", "B") if self.writes else ("A",)
        good = 0
        for i, read in enumerate(reads):
            response = read.response
            if not response["exact"] or response["shed"]:
                problems = [f"degraded: mode {response['mode']}, "
                            f"shed {response['shed']}"]
            else:
                got = _answers(response)
                per_state = [
                    golden.check_exact(self.truth[s][read.statement], got)
                    for s in states
                ]
                problems = [] if [] in per_state else min(per_state, key=len)
            good += report.op(f"{phase} read#{i} {read.statement}", problems)
        return good

    # ------------------------------------------------------------- untraced
    def _measure(self, report: Report, seconds: float, rec, label: str,
                 poll_stats: bool = False) -> dict:
        """The workload's phases on recorder *rec*; every read checked."""
        w = self.spec
        reads, commits, wall, depth = self._load(
            seconds * w.op_share, spec.SERVE_CONNECTIONS, rec,
            writes=self.writes, poll_stats=poll_stats)
        good = self._check_reads(report, label, reads)
        out = {"reads": reads, "commits": commits, "goodput": good / wall,
               "depth": depth, "solo": [], "solo_goodput": 0.0}
        if not self.writes:
            solo, _, solo_wall, _ = self._load(
                seconds * (1 - w.op_share), 1, rec, writes=False)
            out["solo"] = solo
            out["solo_goodput"] = self._check_reads(
                report, f"{label}-solo", solo) / solo_wall
        return out

    def untraced(self, report: Report, seconds: float) -> None:
        m = self._measure(report, seconds, OFF, "load")
        alt = self._split_by_flush(m["reads"])[1] if self.writes else m["solo"]
        report.set(
            op_p50_ms=ms(typical(m["reads"])),
            alt_op_p50_ms=ms(typical(alt)),
            goodput_ops_s=m["goodput"],
            exact_share=_exact_share(m["reads"] + m["solo"]),
        )

    # --------------------------------------------------------------- traced
    def traced(self, report: Report, seconds: float, rec: Recorder) -> None:
        ref = self._measure(report, 0.45 * seconds, OFF, "reference")
        ref_read = typical(ref["reads"])
        report.set(
            read_p50_ms=ms(ref_read),
            read_p95_ms=ms(p95(r.seconds for r in ref["reads"])),
            goodput_qps=ref["goodput"],
        )
        if self.writes:
            report.set(commit_p50_ms=ms(p50(ref["commits"])))
        else:
            report.set(**{
                "solo_read_p50_ms": ms(typical(ref["solo"])),
                "serve.concurrency_scaling": ref["goodput"] / ref["solo_goodput"],
            })

        m = self._measure(report, 0.35 * seconds, rec, "traced", poll_stats=True)
        reads = m["reads"]
        roundtrip = typical(reads)
        execute = typical(reads, lambda r: r.response["seconds"])
        steady, after_commit = self._split_by_flush(reads)
        stats = self.clients[0].stats()
        counters = stats["counters"]
        caches = [p["infer_cache"] for p in stats["prepared"].values()]
        lookups = sum(c["hits"] + c["misses"] for c in caches)
        report.set(**{
            "serve.roundtrip_ms": ms(roundtrip),
            "serve.execute_ms": ms(execute),
            "serve.overhead_ms": ms(roundtrip - execute),
            "serve.read_steady_ms": ms(typical(steady)),
            "serve.read_after_commit_ms": ms(typical(after_commit)),
            "serve.queue_depth_max": m["depth"],
            "serve.shed": sum(v for k, v in counters.items()
                              if k.startswith("serve.scheduler.shed_level")),
            "serve.rejected": sum(v for k, v in counters.items()
                                  if k.startswith("serve.scheduler.rejected")),
            "prepared.infer_cache_hit_rate":
                sum(c["hits"] for c in caches) / lookups if lookups else 0.0,
            "trace.overhead_share": roundtrip / ref_read - 1.0,
            "trace.coverage_share": rec.coverage(("serve.roundtrip",)),
        })
        self._protocol_metrics(report, reads[:50])
        self._in_process_metrics(report)

    @staticmethod
    def _split_by_flush(reads: list[Read]) -> tuple[list[Read], list[Read]]:
        """A read whose ``version`` differs from the same statement's
        previous read is the one that paid the post-commit cache flush."""
        seen: dict[str, int] = {}
        steady, after_commit = [], []
        for read in reads:
            version = read.response["version"]
            previous = seen.setdefault(read.statement, version)
            (steady if version == previous else after_commit).append(read)
            seen[read.statement] = version
        return steady, after_commit

    @staticmethod
    def _protocol_metrics(report: Report, sample: list[Read]) -> None:
        """``repro.serve.protocol`` on captured responses."""
        encode, decode, size = [], [], []
        for read in sample:
            start = time.perf_counter()
            line = protocol.encode(read.response)
            middle = time.perf_counter()
            protocol.decode(line)
            end = time.perf_counter()
            encode.append(middle - start)
            decode.append(end - middle)
            size.append(len(line.encode()))
        report.set(**{
            "protocol.encode_ms": ms(p50(encode)),
            "protocol.decode_ms": ms(p50(decode)),
            "serve.response_bytes": p50(size),
        })

    def _in_process_metrics(self, report: Report, rounds: int = 3) -> None:
        """The same requests without the socket (``Server.query``), without
        the scheduler (warm evaluator + cache), and the db layer alone — all
        on a copy of the database, in this process."""
        db = self.db.copy()
        server = Server(db, policy=AdmissionPolicy(workers=1))
        inproc, library, evaluate_cold, evaluate_warm, answer_warm = (
            [] for _ in range(5))
        try:
            for name in self.statements:
                server.prepare(name, spec.QUERIES[name][0])
                server.query(name, mode="auto", deadline=spec.SERVE_DEADLINE)
            for _ in range(rounds):
                for name in self.statements:
                    start = time.perf_counter()
                    server.query(name, mode="auto", deadline=spec.SERVE_DEADLINE)
                    inproc.append(time.perf_counter() - start)
        finally:
            server.drain()
        for name in self.statements:
            plan = left_deep_plan(parse_query(spec.QUERIES[name][0]))
            evaluator, cache = PartialLineageEvaluator(db), SubformulaCache()
            for i in range(rounds + 1):
                start = time.perf_counter()
                result = evaluator.evaluate(plan)
                middle = time.perf_counter()
                result.answer_probabilities(cache=cache)
                end = time.perf_counter()
                if i == 0:
                    evaluate_cold.append(middle - start)
                else:
                    evaluate_warm.append(middle - start)
                    answer_warm.append(end - middle)
                    library.append(end - start)
        snapshots, commits = [], []
        p_a, p_b = inputs.state_b_probability(db)
        for i in range(20):
            start = time.perf_counter()
            db.snapshot()
            snapshots.append(time.perf_counter() - start)
            start = time.perf_counter()
            txn = db.begin()
            txn.set_probability(spec.WRITE_RELATION, spec.WRITE_ROW,
                                p_a if i % 2 else p_b)
            txn.commit()
            commits.append(time.perf_counter() - start)
        report.set(**{
            "server.inproc_ms": ms(p50(inproc)),
            "server.sched_overhead_ms": ms(p50(inproc) - p50(library)),
            "executor.evaluate_cold_ms": ms(p50(evaluate_cold)),
            "executor.evaluate_warm_ms": ms(p50(evaluate_warm)),
            "executor.encode_ms": ms(p50(evaluate_cold) - p50(evaluate_warm)),
            "inference.answer_warm_ms": ms(p50(answer_warm)),
            "db.snapshot_ms": ms(p50(snapshots)),
            "db.commit_ms": ms(p50(commits)),
        })


def _exact_share(reads: list[Read]) -> float:
    answers = [a for r in reads for a in r.response["answers"]]
    return sum(a["exact"] for a in answers) / len(answers)
