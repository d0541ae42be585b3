"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import load_database, main
from repro.errors import ReproError


@pytest.fixture
def csv_db(tmp_path):
    (tmp_path / "R.csv").write_text("A,p\n1,0.5\n2,1.0\n")
    (tmp_path / "S.csv").write_text("A,B,p\n1,x,0.5\n1,y,0.5\n2,x,0.9\n")
    (tmp_path / "T.csv").write_text("B,p\nx,1.0\ny,0.8\n")
    return tmp_path


def test_load_database(csv_db):
    db = load_database(str(csv_db))
    assert sorted(db.names()) == ["R", "S", "T"]
    assert db["R"].probability((1,)) == 0.5
    assert db["S"].probability((1, "x")) == 0.5  # mixed int/str values
    assert db["T"].probability(("y",)) == 0.8


def test_load_database_errors(tmp_path):
    with pytest.raises(ReproError, match="no .csv"):
        load_database(str(tmp_path))
    (tmp_path / "R.csv").write_text("A,B\n1,2\n")  # missing p column
    with pytest.raises(ReproError, match="'p'"):
        load_database(str(tmp_path))


def test_query_command(csv_db, capsys):
    code = main(["query", str(csv_db), "q(x) :- R(x), S(x,y), T(y)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "answer" in out and "probability" in out
    assert "offending" in out


def test_query_command_boolean_and_order(csv_db, capsys):
    code = main([
        "query", str(csv_db), "R(x), S(x,y), T(y)", "--join-order", "T,S,R",
    ])
    assert code == 0
    assert "()" in capsys.readouterr().out


def test_query_command_optimize(csv_db, capsys):
    code = main(["query", str(csv_db), "R(x), S(x,y), T(y)", "--optimize"])
    assert code == 0
    assert "optimised join order" in capsys.readouterr().out


def test_analyze_command(capsys):
    assert main(["analyze", "R(x), S(x,y)"]) == 0
    out = capsys.readouterr().out
    assert "hierarchical (safe):      True" in out
    assert "safe plan" in out

    assert main(["analyze", "R(x), S(x,y), T(y)"]) == 0
    out = capsys.readouterr().out
    assert "hierarchical (safe):      False" in out
    assert "none" in out


def test_workload_command(capsys):
    code = main([
        "workload", "P1", "--n", "2", "--m", "10", "--rf", "0.2",
        "--baseline", "--sample",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "partial-lineage" in out
    assert "full-lineage-dpll" in out
    assert "karp-luby" in out


def test_workload_has_one_sampler(capsys):
    """There is one Monte-Carlo implementation, so no flag picks one."""
    with pytest.raises(SystemExit) as exc:
        main(["workload", "P1", "--sample", "--mc-method", "scalar"])
    assert exc.value.code == 2
    assert "--mc-method" in capsys.readouterr().err


def test_error_exit_code(tmp_path, capsys):
    code = main(["query", str(tmp_path), "R(x)"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_workload_save(tmp_path, capsys):
    target = tmp_path / "instance"
    code = main([
        "workload", "P1", "--n", "1", "--m", "6", "--save", str(target),
    ])
    assert code == 0
    assert (target / "S1.csv").exists()
    from repro.io import load_database

    db = load_database(target)
    assert len(db["S1"]) == 6


def test_query_command_explain(csv_db, capsys):
    code = main([
        "query", str(csv_db), "R(x), S(x,y), T(y)", "--explain",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "⋈" in out and "scan" in out


def test_explain_command(csv_db, capsys):
    code = main(["explain", "q(x) :- R(x), S(x,y)", "--database", str(csv_db)])
    assert code == 0
    out = capsys.readouterr().out
    assert "per-operator timings" in out
    assert "network components" in out
    assert "offending" in out


def test_explain_command_workload_with_json(tmp_path, capsys):
    out_json = tmp_path / "explain.json"
    code = main([
        "explain", "P1", "--workload", "--m", "20",
        "--json", str(out_json),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "generated" in out and "per-component inference" in out
    import json

    payload = json.loads(out_json.read_text())
    assert payload["query"]
    assert payload["metrics"]["counters"]
    assert payload["component_count"] == sum(
        payload["component_sizes"].values()
    )


def test_explain_command_requires_database_or_workload(capsys):
    assert main(["explain", "q(x) :- R(x)"]) == 2
    assert "--database" in capsys.readouterr().err


def test_explain_command_rejects_unknown_workload_query(capsys):
    assert main(["explain", "q(x) :- R(x)", "--workload"]) == 2
    assert "Table 1" in capsys.readouterr().err


def test_explain_command_trace_and_profile(csv_db, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main([
        "explain", "q(x) :- R(x), S(x,y)", "--database", str(csv_db),
        "--trace", str(trace_path), "--profile",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "explain" in out  # the profile tree includes the root span
    from repro.obs import validate_chrome_trace

    assert trace_path.exists()
    assert validate_chrome_trace(trace_path) == []


def test_query_command_with_trace(csv_db, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main([
        "query", str(csv_db), "q(x) :- R(x), S(x,y), T(y)",
        "--trace", str(trace_path),
    ])
    assert code == 0
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(trace_path) == []


def test_whatif_command(csv_db, capsys):
    code = main([
        "whatif", "q(x) :- R(x), S(x,y), T(y)",
        "--database", str(csv_db), "--limit", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "offending tuples" in out
    assert "top sensitivities" in out
    assert "swing" in out


def test_whatif_command_batch(csv_db, capsys):
    code = main([
        "whatif", "q(x) :- R(x), S(x,y), T(y)",
        "--database", str(csv_db), "--batch", "20", "--limit", "2",
        "--method", "obdd",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenarios/s" in out
    assert "batch re-scoring: 20 random scenarios" in out
    assert "circuit cache:" in out


def test_whatif_command_needs_database(capsys):
    code = main(["whatif", "q(x) :- R(x)"])
    assert code == 2
    assert "either --database" in capsys.readouterr().err


def test_query_flight_log(csv_db, tmp_path, capsys):
    from repro.obs import validate_flight_records

    log = tmp_path / "flight.jsonl"
    code = main([
        "query", str(csv_db), "q(x) :- R(x), S(x,y), T(y)",
        "--flight-log", str(log),
    ])
    assert code == 0
    assert "flight records" in capsys.readouterr().out
    assert validate_flight_records(str(log)) == []
    import json

    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert any(r["kind"] == "query" for r in records)


def test_obs_metrics_replay_and_lint(tmp_path, capsys):
    out_path = tmp_path / "metrics.prom"
    code = main(["obs", "metrics", "--m", "15", "--out", str(out_path)])
    assert code == 0
    assert main(["obs", "lint", str(out_path)]) == 0
    assert "valid OpenMetrics" in capsys.readouterr().out
    text = out_path.read_text()
    assert "repro_flight_query_count_total" in text
    assert text.endswith("# EOF\n")


def test_obs_metrics_from_flight_log(tmp_path, capsys):
    log = tmp_path / "flight.jsonl"
    assert main(["obs", "metrics", "--m", "15",
                 "--out", str(tmp_path / "unused.prom")]) == 0
    # produce a log via a replay sink, then read it back
    from repro.obs import flight_recorder
    from repro.obs.telemetry import record

    with flight_recorder(log):
        record("query", engine="columnar", seconds=0.01, answers=1)
    capsys.readouterr()
    assert main(["obs", "metrics", "--flight-log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "repro_flight_query_count_total 1" in out


def test_obs_slo_replay_passes(capsys):
    assert main(["obs", "slo", "--m", "15"]) == 0
    out = capsys.readouterr().out
    assert "latency_p95" in out and "all objectives met" in out


def test_obs_slo_violation_exits_nonzero(capsys):
    # an impossible p50 objective must fail against any real replay
    assert main(["obs", "slo", "--m", "15", "--p50", "1e-9"]) == 1
    assert "OBJECTIVES VIOLATED" in capsys.readouterr().out


def test_obs_slo_json(capsys):
    import json

    assert main(["obs", "slo", "--m", "15", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert {r["name"] for r in payload["slos"]} >= {"latency_p50",
                                                    "error_rate"}


def test_obs_lint_rejects_broken_exposition(tmp_path, capsys):
    bad = tmp_path / "bad.prom"
    bad.write_text("x_total 1\n")  # no TYPE, no EOF
    assert main(["obs", "lint", str(bad)]) == 1
    assert "lint:" in capsys.readouterr().err


def test_obs_validate_flight_log(tmp_path, capsys):
    log = tmp_path / "flight.jsonl"
    log.write_text('{"v": 1, "seq": 1, "ts": 0, "pid": 1, "kind": "bogus"}\n')
    assert main(["obs", "validate", str(log)]) == 1
    assert "unknown kind" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["query"],
    ["query", "--top-k", "1"],
    ["explain", "--database"],
    ["whatif", "--database"],
])
def test_commands_read_only_the_named_relations(csv_db, tmp_path, capsys,
                                                command):
    # an unrelated, malformed relation in the directory is never read
    clean = tmp_path / "clean"
    clean.mkdir()
    for name in ("R", "S", "T"):
        (clean / f"{name}.csv").write_text((csv_db / f"{name}.csv").read_text())
    (csv_db / "X.csv").write_text("A,p\n1,nan\n")
    query = "q(x) :- R(x), S(x,y), T(y)"

    def run(directory):
        if command[0] == "query":
            argv = ["query", str(directory), query, *command[1:]]
        else:
            argv = [command[0], query, "--database", str(directory)]
        assert main(argv) == 0
        out = re.sub(r"\d+\.\d+s\b", "<t>", capsys.readouterr().out)
        if command[0] == "explain":  # its timing columns
            out = re.sub(r"\b\d\.\d{5}\b", "<t>", out)
        return out

    got = run(csv_db)
    assert got == run(clean)
    assert "answer" in got


def test_query_naming_a_missing_relation_exits_1(csv_db, capsys):
    code = main(["query", str(csv_db), "q(x) :- R(x), U(x)"])
    assert code == 1
    err = capsys.readouterr().err
    assert "U.csv" in err and "R, S, T" in err
