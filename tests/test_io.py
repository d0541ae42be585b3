"""Tests for CSV persistence of probabilistic databases."""

import pytest

from repro.db import ProbabilisticDatabase
from repro.errors import ProbabilityError, ReproError
from repro.io import load_database, save_database


@pytest.fixture
def db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5, (2,): 1.0})
    db.add_relation(
        "S", ("A", "B"), {(1, "x"): 0.25, (2, "y z"): 0.125}
    )
    return db


def test_round_trip(db, tmp_path):
    save_database(db, tmp_path)
    loaded = load_database(tmp_path)
    assert sorted(loaded.names()) == sorted(db.names())
    for rel in db:
        assert dict(loaded[rel.name].items()) == dict(rel.items())
        assert loaded[rel.name].schema == rel.schema


def test_round_trip_preserves_float_probabilities(tmp_path):
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.1 + 0.2})  # 0.30000000000000004
    save_database(db, tmp_path)
    loaded = load_database(tmp_path)
    assert loaded["R"].probability((1,)) == db["R"].probability((1,))


def test_save_creates_directory(db, tmp_path):
    target = tmp_path / "nested" / "dir"
    save_database(db, target)
    assert (target / "R.csv").exists()


def test_workload_round_trip(tmp_path):
    from repro.workload.generator import WorkloadParams, generate_database

    db = generate_database(WorkloadParams(N=2, m=8, seed=3))
    save_database(db, tmp_path)
    loaded = load_database(tmp_path)
    for rel in db:
        assert dict(loaded[rel.name].items()) == dict(rel.items()), rel.name


def test_load_errors(tmp_path):
    with pytest.raises(ReproError, match="no .csv"):
        load_database(tmp_path)
    (tmp_path / "R.csv").write_text("A,B\n1,2\n")
    with pytest.raises(ReproError, match="'p'"):
        load_database(tmp_path)


def test_loaded_database_evaluates(db, tmp_path):
    from repro.core.executor import PartialLineageEvaluator
    from repro.query.parser import parse_query

    save_database(db, tmp_path)
    loaded = load_database(tmp_path)
    q = parse_query("R(x), S(x, y)")
    a = PartialLineageEvaluator(db).evaluate_query(q).boolean_probability()
    b = PartialLineageEvaluator(loaded).evaluate_query(q).boolean_probability()
    assert a == pytest.approx(b)


class TestLeafProbabilityValidation:
    """NaN/Inf/garbage in the p column must fail at load, with location."""

    def test_nan_probability_rejected(self, tmp_path):
        (tmp_path / "R.csv").write_text("A,p\n1,0.5\n2,nan\n")
        with pytest.raises(ProbabilityError, match=r"R\.csv:3.*not finite"):
            load_database(tmp_path)

    def test_inf_probability_rejected(self, tmp_path):
        (tmp_path / "R.csv").write_text("A,p\n1,inf\n")
        with pytest.raises(ProbabilityError, match=r"R\.csv:2.*not finite"):
            load_database(tmp_path)

    def test_non_numeric_probability_rejected(self, tmp_path):
        (tmp_path / "R.csv").write_text("A,p\n1,high\n")
        with pytest.raises(ProbabilityError, match=r"R\.csv:2.*not a number"):
            load_database(tmp_path)

    def test_out_of_range_probability_still_rejected(self, tmp_path):
        (tmp_path / "R.csv").write_text("A,p\n1,1.5\n")
        with pytest.raises(ProbabilityError):
            load_database(tmp_path)


class TestLoadNamedRelations:
    """``relations=`` reads only the named files, each checked in full."""

    def test_subset_equals_the_full_load(self, tmp_path):
        from repro.workload.generator import WorkloadParams, generate_database

        db = generate_database(WorkloadParams(N=2, m=8, seed=3))
        save_database(db, tmp_path)
        full = load_database(tmp_path)
        names = ["S1", "R1", "R2"]
        part = load_database(tmp_path, relations=names)
        assert sorted(part.names()) == sorted(names)
        for name in names:
            got, want = list(part[name].items()), list(full[name].items())
            assert got == want
            assert [tuple(map(type, (*r, p))) for r, p in got] == [
                tuple(map(type, (*r, p))) for r, p in want
            ]
            assert part[name].schema == full[name].schema

    def test_unnamed_files_are_not_read(self, tmp_path):
        (tmp_path / "R.csv").write_text("A,p\n1,0.5\n")
        (tmp_path / "X.csv").write_text("A,p\n1,0.5\n2,nan\n")
        db = load_database(tmp_path, relations={"R"})
        assert db.names() == ["R"]
        # the full load still reads, and rejects, X.csv
        with pytest.raises(ProbabilityError, match=r"X\.csv:3.*not finite"):
            load_database(tmp_path)
        with pytest.raises(ProbabilityError, match=r"X\.csv:3.*not finite"):
            load_database(tmp_path, relations={"R", "X"})

    def test_named_relation_without_a_file(self, tmp_path):
        (tmp_path / "R.csv").write_text("A,p\n1,0.5\n")
        (tmp_path / "S.csv").write_text("A,p\n1,0.5\n")
        with pytest.raises(ReproError, match=r"no T\.csv .*relations: R, S"):
            load_database(tmp_path, relations=["R", "T"])

    def test_named_files_keep_every_check(self, tmp_path):
        from repro.errors import SchemaError

        (tmp_path / "R.csv").write_text("A,B\n1,2\n")
        with pytest.raises(ReproError, match="'p'"):
            load_database(tmp_path, relations=["R"])
        (tmp_path / "R.csv").write_text("A,p\n1,high\n")
        with pytest.raises(ProbabilityError, match=r"R\.csv:2.*not a number"):
            load_database(tmp_path, relations=["R"])
        (tmp_path / "R.csv").write_text("A,p\n1,1.5\n")
        with pytest.raises(ProbabilityError):
            load_database(tmp_path, relations=["R"])
        (tmp_path / "R.csv").write_text("A,p\n1,2,0.5\n")
        with pytest.raises(SchemaError, match="arity"):
            load_database(tmp_path, relations=["R"])
        (tmp_path / "R.csv").write_text("A,p\n1,0.5\n1,0.25\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_database(tmp_path, relations=["R"])
        (tmp_path / "R.csv").write_text("")
        with pytest.raises(ReproError, match="'p'"):
            load_database(tmp_path, relations=["R"])

    def test_version_moves_once_per_relation(self, db, tmp_path):
        save_database(db, tmp_path)
        assert load_database(tmp_path).version == len(db.names())
