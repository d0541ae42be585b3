"""What every workload shares: the run context, the op loop, the report."""

from __future__ import annotations

import gc
import os
import pathlib
import statistics
import sys
import time
from dataclasses import dataclass, field

from benchmarks.e2e import spec

ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def pin_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` unless already so. Program-side
    counts (cache lookups, DPLL calls) and the last digit of the oracle's
    sums depend on set order, hence on the string hash seed; subprocesses
    inherit the pin."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, sys.orig_argv)


def child_env() -> dict[str, str]:
    """Environment of the `repro` subprocesses: the checkout's ``src`` on the
    path, BLAS/OpenMP pinned to one thread like the harness itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def repro_cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


@dataclass
class Context:
    """One run's arguments, as the workloads see them."""

    workload: str
    seed: int
    quick: bool
    pins: dict
    #: scratch directory of this run, inside the checkout
    tmp: pathlib.Path

    @property
    def instance(self) -> int:
        """The generator seed of this run's pinned instance."""
        return spec.PINNED_SEEDS[self.seed % spec.INSTANCES]


@dataclass
class Report:
    """Metrics and the correctness tally of one run."""

    workload: str
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, label: str, problems: list[str]) -> bool:
        """Tally one checked operation; returns whether it was correct."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{self.workload} {label}: {p}" for p in problems]
        return not problems

    def set(self, **metrics: float) -> None:
        self.metrics.update(metrics)


def run_for(seconds: float, op, check, *, min_ops: int = 3
            ) -> tuple[list[float], float]:
    """Closed loop: call ``op(i)`` until *seconds* have passed (and at least
    *min_ops* times). ``check(i, result)`` runs outside the timed interval.
    Returns the per-op seconds and the wall time of the timed intervals."""
    gc.collect()
    times: list[float] = []
    spent = 0.0
    while len(times) < min_ops or spent < seconds:
        start = time.perf_counter()
        result = op(len(times))
        elapsed = time.perf_counter() - start
        check(len(times), result)
        times.append(elapsed)
        spent += elapsed
    return times, spent


def p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    """Nearest-rank 95th percentile; meaningful from ~200 samples (>= 10
    beyond it)."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(0.95 * len(values)))]


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def ms(seconds: float) -> float:
    return seconds * 1e3
