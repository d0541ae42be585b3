"""The benchmark BENCHMARK.json declares, at smoke size, inside tier-1.

``hard_bounded`` is the workload whose operations check every exact answer
and every enclosure against the pinned possible-worlds oracle, so a solver
change that breaks an answer fails ``pytest`` here, not only the
``e2e-quick`` CI job.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_hard_bounded_quick_run_is_correct(tmp_path):
    out = tmp_path / "e2e.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.run", "--quick",
         "--workload", "hard_bounded", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())["results"]["hard_bounded"]["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "op_p50_ms" in done.stdout
