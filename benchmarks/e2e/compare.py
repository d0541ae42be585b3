"""Two result files of ``run.py --out`` against the bounds in ``BENCHMARK.json``.

``python -m benchmarks.e2e.compare A.json B.json`` prints one row per
workload and end-to-end metric: B relative to A, signed so that positive is
worse, beside the metric's bound. It exits non-zero when any pair differs by
more than its bound in either direction — as the repeatability check for two
sets of runs of one commit, and as the parent-vs-change table for later work.
``--quick`` results are refused: their numbers mean nothing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("quick"):
        sys.exit(f"{path}: a --quick run; its numbers are not comparable")
    return data["results"]


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse *b* is than *a*, as a share of *a*."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.compare",
                                     description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]
    a, b = load(args.a), load(args.b)
    disagreements = 0
    print(f"{'workload':16} {'metric':16} {'A':>12} {'B':>12} {'worse by':>9} "
          f"{'bound':>6}")
    for workload in sorted(a.keys() | b.keys()):
        try:
            ma = a[workload]["end_to_end"]["metrics"]
            mb = b[workload]["end_to_end"]["metrics"]
        except KeyError:
            print(f"{workload:16} missing from one side")
            disagreements += 1
            continue
        for metric in metrics:
            name = metric["name"]
            va, vb = ma[name]["value"], mb[name]["value"]
            worse = worse_by(metric, va, vb)
            agrees = abs(worse) <= metric["bound"]
            disagreements += not agrees
            print(f"{workload:16} {name:16} {va:12.6g} {vb:12.6g} "
                  f"{worse:+9.1%} {metric['bound']:6.0%}"
                  f"{'' if agrees else '  DISAGREE'}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
