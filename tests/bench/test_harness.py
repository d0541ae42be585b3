"""Tests for the benchmark harness and reporting."""

import pytest

from repro.bench.harness import (
    agreement,
    run_full_lineage,
    run_partial_lineage,
    run_partial_lineage_sqlite,
    run_sampling,
)
from repro.bench.reporting import format_table
from repro.workload.generator import WorkloadParams, generate_database
from repro.workload.queries import benchmark_query

from tests.conftest import WIDE_RST, rst_database


@pytest.fixture(scope="module")
def small_db():
    return generate_database(WorkloadParams(N=2, m=8, r_f=0.2, seed=11))


def test_methods_agree_on_small_workload(small_db):
    bench = benchmark_query("P1")
    pl = run_partial_lineage(small_db, bench)
    fl = run_full_lineage(small_db, bench)
    sq = run_partial_lineage_sqlite(small_db, bench)
    assert not pl.timed_out and not fl.timed_out
    assert agreement(pl, fl)
    assert agreement(pl, sq)
    assert pl.seconds > 0 and fl.seconds > 0
    assert pl.network_nodes >= 1
    # narrow lineage is eliminated, wide lineage branched on: either is work
    assert fl.dpll_calls + fl.eliminated > 0


def test_sampling_close_to_exact(small_db):
    bench = benchmark_query("P1")
    exact = run_partial_lineage(small_db, bench)
    approx = run_sampling(small_db, bench, samples=20000, seed=1)
    assert set(approx.answers) == set(exact.answers)
    for k in exact.answers:
        assert approx.answers[k] == pytest.approx(exact.answers[k], abs=0.03)


def test_full_lineage_budget(small_db):
    # the call cap only meets lineage too wide to eliminate ...
    wide = rst_database(*WIDE_RST)
    result = run_full_lineage(wide, benchmark_query("P1"), max_calls=5)
    assert result.timed_out and not result.answers
    assert result.seconds >= 0
    # ... narrow lineage is answered without a single call
    result = run_full_lineage(small_db, benchmark_query("S2"), max_calls=0)
    assert not result.timed_out
    assert result.dpll_calls == 0 and result.eliminated > 0


def test_agreement_detects_mismatch(small_db):
    bench = benchmark_query("P1")
    a = run_partial_lineage(small_db, bench)
    b = run_partial_lineage(small_db, bench)
    assert agreement(a, b)
    b.answers[next(iter(b.answers))] += 0.5
    assert not agreement(a, b)


def test_format_table():
    out = format_table(("q", "sec"), [("P1", 0.125), ("P2", 1.5)], title="Fig")
    lines = out.splitlines()
    assert lines[0] == "Fig"
    assert "P1" in out and "0.125" in out and "1.5" in out
    assert len(lines) == 5


def test_format_table_small_floats():
    out = format_table(("v",), [(0.00001234,)])
    assert "1.234e-05" in out


def test_ascii_chart():
    from repro.bench.reporting import ascii_chart

    out = ascii_chart(
        {"a": [(0.0, 0.001), (0.5, 0.01), (1.0, 0.1)],
         "b": [(0.0, 0.002)]},
        width=20, title="chart",
    )
    lines = out.splitlines()
    assert lines[0] == "chart"
    assert len(lines) == 5
    # bars grow with y on the log scale
    bars = [line.count("█") for line in lines[1:4]]
    assert bars == sorted(bars)
    assert bars[0] == 0 and bars[-1] == 20
    # linear mode and empty series
    assert ascii_chart({"a": [(0, 0.0)]}, title="t") == "t"
    linear = ascii_chart({"a": [(0, 1.0), (1, 2.0)]}, log=False, width=10)
    assert linear.splitlines()[1].count("█") == 10
