"""Plain-text and JSON rendering of benchmark rows and series.

The benchmark scripts print, for every figure of the paper, the same series
the figure plots (method × parameter → seconds), as aligned text tables that
land in ``bench_output.txt``. ``repro explain --json`` writes its report
through :func:`write_json_report`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table.

    Examples
    --------
    >>> print(format_table(("a", "b"), [(1, 2.5), (10, 0.125)], title="t"))
    t
    a   b
    --  -----
    1   2.5
    10  0.125
    """
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def ascii_chart(
    series: dict[str, list[tuple[float, float]]],
    *,
    width: int = 56,
    log: bool = True,
    title: str = "",
    unit: str = "s",
) -> str:
    """Render labelled (x, y) series as horizontal ASCII bars, one row per x.

    With ``log`` the bar length is proportional to the y value's position on
    a log scale between the smallest and largest positive y across all
    series — the right reading for the paper's log-scale time plots.

    Examples
    --------
    >>> print(ascii_chart({"a": [(0, 0.001), (1, 0.1)]}, width=10, title="t"))
    t
    a x=0 ▏ 1.000e-03s
    a x=1 ██████████▏ 0.1s
    """
    import math

    positives = [
        y for points in series.values() for _, y in points if y > 0
    ]
    if not positives:
        return title
    lo, hi = min(positives), max(positives)

    def bar(y: float) -> int:
        if y <= 0:
            return 0
        if hi == lo:
            return width
        if log:
            return round(width * (math.log(y) - math.log(lo)) /
                         (math.log(hi) - math.log(lo)))
        return round(width * (y - lo) / (hi - lo))

    label_width = max(len(name) for name in series)
    x_width = max(
        len(_fmt(x)) for points in series.values() for x, _ in points
    )
    lines = [title] if title else []
    for name, points in series.items():
        for x, y in points:
            lines.append(
                f"{name.ljust(label_width)} x={_fmt(x).ljust(x_width)} "
                f"{'█' * bar(y)}▏ {_fmt(y)}{unit}"
            )
    return "\n".join(lines)


def write_json_report(path: str | pathlib.Path, payload: dict) -> pathlib.Path:
    """Write a benchmark payload as stable, diff-friendly JSON.

    Keys are sorted and floats pass through ``json`` untouched, so reruns
    with identical numbers produce byte-identical files.

    Examples
    --------
    >>> import tempfile, os
    >>> target = os.path.join(tempfile.mkdtemp(), "report.json")
    >>> p = write_json_report(target, {"b": 1, "a": {"speedup": 12.5}})
    >>> print(p.read_text(), end="")
    {
      "a": {
        "speedup": 12.5
      },
      "b": 1
    }
    """
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 0.01:
            return f"{value:.4g}"
        return f"{value:.3e}"
    return str(value)
