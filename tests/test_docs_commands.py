"""Every command the docs, Makefile and CI quote must still exist.

Extracts each ``python -m <module>`` (first-party modules: ``repro.*``,
``benchmarks.*``) and each ``repro <subcommand>`` from the files people and
CI copy commands out of, and checks the module resolves and the subcommand
is registered in :func:`repro.cli.build_parser`.
"""

import argparse
import importlib.util
import pathlib
import re
import sys

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = (
    "README.md",
    "DESIGN.md",
    "Makefile",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)

MODULE = re.compile(
    r"(?:python3?|\$\(PYTHON\))\s+-m\s+((?:repro|benchmarks)(?:\.\w+)*)"
)
# `repro <word>` at the start of a command (not Python's `from repro import`),
# or `-m repro.cli <word>`
SUBCOMMAND = re.compile(
    r"(?:(?:^|[`\s;&|(])(?<!from )repro|-m\s+repro\.cli)[ \t]+([a-z][\w-]*)",
    re.MULTILINE,
)
# Markdown prose also says "repro" in sentences; only code is a command.
# Inline spans may wrap over a line break, never over a blank line.
CODE = re.compile(r"```.*?```|`(?:[^`\n]|\n(?!\n))+`", re.DOTALL)


def subcommands() -> set[str]:
    (action,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return set(action.choices)


def problems(text: str, markdown: bool) -> list[str]:
    """Quoted commands in *text* that no longer exist."""
    if markdown:
        text = "\n".join(CODE.findall(text))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        dead = [
            f"python -m {module}"
            for module in sorted(set(MODULE.findall(text)))
            if _missing(module)
        ]
    finally:
        del sys.path[:2]
    known = subcommands()
    dead += [
        f"repro {word}"
        for word in sorted(set(SUBCOMMAND.findall(text)))
        if word not in known
    ]
    return dead


def _missing(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is None
    except ModuleNotFoundError:  # a parent package is gone
        return True


@pytest.mark.parametrize("name", FILES)
def test_quoted_commands_exist(name):
    path = ROOT / name
    assert problems(path.read_text(), markdown=path.suffix == ".md") == []


def test_guard_fires_on_a_retired_command():
    text = (
        "`repro bench --suite serve --out x.json` and\n"
        "```\nPYTHONPATH=src python -m repro.bench.retired_suite\n"
        "python -m repro.cli bench\n```\n"
        "prose about the repro package and `repro query DIR Q` stays quiet"
    )
    assert problems(text, markdown=True) == [
        "python -m repro.bench.retired_suite",
        "repro bench",
    ]
