"""The benchmark's one command.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
(the form ``BENCHMARK.json`` names) runs one workload once, in this process:
set-up (repeated, median reported), warm-up, the measured window, the checks.
It prints every metric as ``name value unit`` and ends with one JSON line.

Without ``--trace`` it is the front end for people: every workload (or the
one named), untraced and — with ``--traced`` — traced, each in a child
process so that peak RSS is per workload; ``--out`` collects the results for
``benchmarks.e2e.compare``. ``PYTHONPATH=src python -m benchmarks.e2e.run``
is the same program.
"""

from __future__ import annotations

import os

# before NumPy loads: one BLAS/OpenMP thread, as in the daemon subprocess
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.e2e: no program to measure at {ROOT / 'src' / 'repro'}")
# as a script, the first path entry is this directory: its serve.py and
# spans.py must not shadow top-level modules
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    p for p in sys.path if pathlib.Path(p or ".").resolve() != ROOT / "benchmarks" / "e2e"
]

from benchmarks.e2e.harness import OUT_DIR, Context, Report, pin_hash_seed  # noqa: E402

pin_hash_seed()  # re-executes: before the expensive imports

from benchmarks.e2e import inputs, spec  # noqa: E402
from benchmarks.e2e.library import HardBounded, Table1  # noqa: E402
from benchmarks.e2e.serve import Serve  # noqa: E402
from benchmarks.e2e.spans import Recorder  # noqa: E402

WORKLOAD_CLASSES = {
    "table1_sparse": Table1,
    "table1_dense": Table1,
    "hard_bounded": HardBounded,
    "serve_read": Serve,
    "serve_readwrite": Serve,
}

SETUP_REPEATS = 3
QUICK_SECONDS = 1.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> Report:
    """One workload, once, in this process."""
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = Context(name, seed, quick, inputs.load_pins(), tmp)
    report = Report(name)
    workload = WORKLOAD_CLASSES[name](ctx)
    setups = []
    try:
        for repeat in range(1 if quick else SETUP_REPEATS):
            if repeat:
                workload.close()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        workload.warmup(report, traced)
        if traced:
            recorder = Recorder()
            workload.traced(report, seconds, recorder)
            recorder.write(OUT_DIR / f"{name}.trace.json")
            report.set(failed_share=report.failed / report.attempted)
        else:
            workload.untraced(report, seconds)
            report.set(
                setup_s=statistics.median(setups),
                peak_rss_mb=getattr(workload, "peak_rss_mb", own_peak_rss_mb)(),
            )
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def result_line(report: Report, traced: bool) -> dict:
    """The JSON object the run ends with: exactly the metrics
    ``BENCHMARK.json`` lists for this kind of run, every one present."""
    listed = spec.PER_LAYER if traced else spec.END_TO_END
    if not traced:
        missing = [n for n, *_ in listed if n not in report.metrics]
        if missing:
            raise RuntimeError(f"{report.workload}: no value for {missing}")
    return {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": float(report.metrics.get(name, 0.0)), "unit": unit}
            for name, unit, *_ in listed
        },
    }


def main_one(args) -> int:
    traced = bool(args.trace)
    try:
        report = run_one(args.workload, args.seed, args.seconds, traced, args.quick)
    except inputs.InputMismatch as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 2
    result = result_line(report, traced)
    label = " quick" if args.quick else ""
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={int(traced)}{label}")
    for name, entry in result["metrics"].items():
        if name in report.metrics:  # a layer the workload bypasses stays 0
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for failure in report.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main_all(args) -> int:
    """Each workload in a child process; relay its lines, keep its result."""
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    results: dict = {}
    status = 0
    for name in names:
        for trace in (0, 1) if args.traced else (0,):
            command = [
                sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0:
                status = done.returncode
            if lines and lines[-1].startswith("{"):
                kind = "per_layer" if trace else "end_to_end"
                results.setdefault(name, {})[kind] = json.loads(lines.pop())
            print("\n".join(lines), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"quick": args.quick, "seed": args.seed,
                       "seconds": args.seconds, "results": results}, handle, indent=1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.run", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help=f"runs the pinned instance PINNED_SEEDS[seed %% {spec.INSTANCES}]")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run once in this process: 0 end-to-end metrics, "
                             "1 per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="after each untraced run, the traced run")
    parser.add_argument("--quick", action="store_true",
                        help=f"m/{spec.QUICK_DIVISOR}, short window: exercises "
                             "every code path; numbers are not comparable")
    parser.add_argument("--out", metavar="FILE",
                        help="collect the results for benchmarks.e2e.compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(spec.RUN_SECONDS)
    if args.trace is not None and not args.workload:
        parser.error("--trace runs one workload: name it with --workload")
    return main_one(args) if args.trace is not None else main_all(args)


if __name__ == "__main__":
    sys.exit(main())
