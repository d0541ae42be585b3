"""The one probability-interval record: validation, clamping, intersection."""

import math

import pytest

from repro.core.executor import PartialLineageEvaluator
from repro.enclosure import Enclosure
from repro.query.parser import parse_query
from repro.resilience import QueryBudget

from tests.conftest import rst_database


def test_nan_and_disorder_are_refused():
    bad = ((math.nan, 0.5), (0.2, math.nan), (0.6, 0.5), (0.0, 1.1))
    for lower, upper in bad:
        with pytest.raises(ValueError):
            Enclosure(lower, upper, "bounds", False)
    # float noise past [0, 1] is tolerated
    Enclosure(-1e-13, 1.0 + 1e-13, "exact", True)


def test_clamped_clips_and_orders():
    e = Enclosure.clamped(-0.25, 1.5, "karp-luby", False)
    assert (e.lower, e.upper, e.exact) == (0.0, 1.0, False)
    crossed = Enclosure.clamped(0.7 + 1e-15, 0.7, "dissociation")
    assert crossed.lower == crossed.upper == 0.7 and crossed.exact
    assert not Enclosure.clamped(0.2, 0.4, "dissociation").exact


def test_intersect_narrows_and_keeps_provenance():
    steps = ("a step",)
    e = Enclosure(0.1, 0.5, "bounds", False, steps)
    both = e.intersect(Enclosure(0.3, 0.9, "dissociation", False))
    assert (both.lower, both.upper) == (0.3, 0.5)
    assert both.method == "bounds" and both.steps is steps
    assert e.intersect(None) is e


def test_empty_intersection_keeps_the_narrower_deterministic_bound():
    wide = Enclosure(0.1, 0.4, "bounds", False)
    narrow = Enclosure(0.45, 0.5, "dissociation", False)
    kept = wide.intersect(narrow)
    assert (kept.lower, kept.upper, kept.method) == (0.45, 0.5, "bounds")
    kept = Enclosure(0.1, 0.12, "bounds", False).intersect(narrow)
    assert (kept.lower, kept.upper) == (0.1, 0.12)


def test_empty_intersection_sampling_yields_to_the_prior():
    prior = Enclosure(0.45, 0.9, "dissociation", False)
    for method in ("karp-luby", "forward"):
        kept = Enclosure(0.1, 0.12, method, False).intersect(prior)
        assert (kept.lower, kept.upper, kept.method) == (0.45, 0.9, method)


def test_scaled_shares_steps():
    steps = ("a step",)
    e = Enclosure(0.2, 0.4, "obdd", True, steps).scaled(0.5)
    assert (e.lower, e.upper, e.method, e.exact) == (0.1, 0.2, "obdd", True)
    assert e.steps is steps


def test_answers_of_one_component_share_one_steps_object():
    # One head: every answer row hangs off the one hard component.
    db = rst_database(6, 0.6, 0)
    db.add_relation("U", ("H", "K"), {(0, 1): 0.5, (0, 2): 0.8})
    result = PartialLineageEvaluator(db).evaluate_query(
        parse_query("q(k) :- U(h,k), R1(h,x), S1(h,x,y), R2(h,y)")
    )
    answers = result.resilient_answer_probabilities(QueryBudget())
    assert len(answers) == 2
    assert len({id(a.steps) for a in answers.values()}) == 1
    assert all(a.exact for a in answers.values())
