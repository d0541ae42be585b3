"""Every script in ``examples/`` must run to completion.

Each example asserts its own claims; running it in a fresh interpreter
(with the package importable from ``src/``) catches API drift that no
unit test would see.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5, "examples/ lost its scripts?"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, (
        f"{script.name} exited {done.returncode}\n{done.stderr[-2000:]}"
    )
