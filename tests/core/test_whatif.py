"""Tests for what-if / sensitivity analysis."""

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.core.whatif import WhatIfAnalysis
from repro.db import ProbabilisticDatabase, brute_force_probability
from repro.errors import ReproError
from repro.query.grounding import world_satisfies
from repro.query.parser import parse_query

from tests.conftest import make_rst_database


def build(db):
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    return q, PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])


@pytest.fixture
def simple_db() -> ProbabilisticDatabase:
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.5, (1, 2): 0.5})
    db.add_relation("T", ("B",), {(1,): 1.0, (2,): 1.0})
    return db


def test_provenance_recorded(simple_db):
    _, result = build(simple_db)
    assert len(result.conditioned_tuples) == result.offending_count == 1
    off = result.conditioned_tuples[0]
    assert off.row == (1,)
    assert "R" in off.source


def test_base_probability_matches_exact(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    assert analysis.probability(()) == pytest.approx(
        result.boolean_probability()
    )


def test_override_matches_reevaluation(simple_db):
    q, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    off = result.conditioned_tuples[0]
    for new_p in (0.1, 0.5, 0.9, 1.0):
        got = analysis.probability((), {off: new_p})
        db2 = simple_db.copy()
        db2["R"]._rows[(1,)] = new_p  # direct poke: rebuild the instance
        expected = brute_force_probability(
            db2, lambda w: world_satisfies(q, w)
        )
        assert got == pytest.approx(expected), new_p


def test_override_by_source_row_and_node(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    off = result.conditioned_tuples[0]
    by_tuple = analysis.probability((), {off: 0.9})
    by_node = analysis.probability((), {off.node: 0.9})
    by_pair = analysis.probability((), {(off.source, off.row): 0.9})
    assert by_tuple == pytest.approx(by_node) == pytest.approx(by_pair)


def test_override_validation(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    off = result.conditioned_tuples[0]
    with pytest.raises(ReproError, match="outside"):
        analysis.probability((), {off: 1.5})
    with pytest.raises(ReproError, match="not an offending tuple"):
        analysis.probability((), {("S", (1, 1)): 0.4})
    with pytest.raises(ReproError, match="not an answer"):
        analysis.probability((9,))
    with pytest.raises(ReproError, match="resolve"):
        analysis.probability((), {3.14: 0.5})


def test_sensitivities_identify_driver(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    sens = analysis.sensitivities(())
    assert len(sens) == 1
    s = sens[0]
    # with R(1) absent q is impossible; certain, Pr = Pr(S11 ∨ S12) = .75
    assert s.when_absent == pytest.approx(0.0)
    assert s.when_certain == pytest.approx(0.75)
    assert s.swing == pytest.approx(0.75)
    # derivative check: base = p_R * swing + when_absent
    assert s.base_probability == pytest.approx(0.5 * s.swing)


def test_overrides_match_reevaluation_randomized(rng):
    """Overriding every offending tuple's probability must equal brute force
    on the modified instance."""
    q = parse_query("R(x), S(x,y), T(y)")
    checked = 0
    for _ in range(25):
        db = make_rst_database(rng)
        result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
        if not result.conditioned_tuples or not len(result.relation):
            continue
        # offending tuples of this plan all come from base relation scans
        if any("⋈" in off.source for off in result.conditioned_tuples):
            continue
        checked += 1
        analysis = WhatIfAnalysis(result)
        overrides = {}
        db2 = db.copy()
        for i, off in enumerate(result.conditioned_tuples):
            new_p = 0.2 + 0.1 * (i % 7)
            overrides[off] = new_p
            rel_name = off.source.split("(")[0]
            db2[rel_name]._rows[off.row] = new_p
        got = analysis.probability((), overrides)
        expected = brute_force_probability(
            db2, lambda w: world_satisfies(q, w)
        )
        assert got == pytest.approx(expected)
    assert checked > 3


def test_epsilon_answer(simple_db):
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 0.5})
    db.add_relation("S", ("A", "B"), {(1, 1): 0.7})
    db.add_relation("T", ("B",), {(1,): 0.9})
    q = parse_query("R(x), S(x,y), T(y)")
    result = PartialLineageEvaluator(db).evaluate_query(q, ["R", "S", "T"])
    assert result.is_data_safe
    analysis = WhatIfAnalysis(result)
    assert analysis.probability(()) == pytest.approx(0.5 * 0.7 * 0.9)
    assert analysis.sensitivities(()) == []


# ------------------------------------------------- batch re-scoring / circuits
def test_probability_batch_matches_scalar_loop(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    off = result.conditioned_tuples[0]
    scenarios = [{off: p} for p in (0.0, 0.1, 0.5, 0.9, 1.0)] + [{}]
    batch = analysis.probability_batch((), scenarios)
    assert batch.shape == (6,)
    for got, ov in zip(batch, scenarios):
        assert got == pytest.approx(
            analysis.probability((), ov), abs=1e-12
        )


def test_sensitivity_methods_agree(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    fast = analysis.sensitivities((), method="circuit")
    oracle = analysis.sensitivities((), method="obdd")
    assert [s.tuple for s in fast] == [s.tuple for s in oracle]
    for a, b in zip(fast, oracle):
        assert a.base_probability == pytest.approx(
            b.base_probability, abs=1e-12
        )
        assert a.when_absent == pytest.approx(b.when_absent, abs=1e-12)
        assert a.when_certain == pytest.approx(b.when_certain, abs=1e-12)


def test_sensitivities_rejects_unknown_method(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    with pytest.raises(ReproError, match="unknown sensitivity method"):
        analysis.sensitivities((), method="montecarlo")


def test_circuit_for_epsilon_answer_is_none():
    db = ProbabilisticDatabase()
    db.add_relation("R", ("A",), {(1,): 1.0})
    db.add_relation("S", ("A", "B"), {(1, 1): 1.0})
    db.add_relation("T", ("B",), {(1,): 1.0})
    _, result = build(db)
    analysis = WhatIfAnalysis(result)
    assert analysis.circuit_for(()) is None
    # batch scoring of a certain answer is a constant column
    assert analysis.probability_batch((), [{}, {}]).tolist() == [1.0, 1.0]


def test_variable_for_returns_event_var(simple_db):
    _, result = build(simple_db)
    analysis = WhatIfAnalysis(result)
    off = result.conditioned_tuples[0]
    var = analysis.variable_for(off)
    circuit = analysis.circuit_for(())
    assert var in circuit.leaf_vars


def test_result_whatif_uses_evaluator_cache(simple_db):
    from repro.circuit import CircuitCache

    cache = CircuitCache()
    q = parse_query("q() :- R(x), S(x,y), T(y)")
    evaluator = PartialLineageEvaluator(simple_db, circuit_cache=cache)
    result = evaluator.evaluate_query(q, ["R", "S", "T"])
    a1 = result.whatif()
    a1.circuit_for(())
    assert a1.circuit_sources == {list(a1.circuit_sources)[0]: "obdd"}
    # a second analysis over the same result hits the shared cache
    a2 = result.whatif()
    a2.circuit_for(())
    assert list(a2.circuit_sources.values()) == ["cache"]
    assert cache.stats.hits >= 1
    assert cache.recompiles == 0  # warm: nothing compiled twice
