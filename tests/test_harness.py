from __future__ import annotations

import pytest

from modalrel import (
    GenParams,
    RelationInstance,
    Translator,
    build_database,
    check,
    free_vars,
    gen_model,
    gen_query,
    parse_formula,
    parse_query,
    render_formula,
    run_campaign,
    validate_model,
)
from modalrel.harness import case_params, constructor_histogram, shrink_case
from modalrel.schema import model_from_database
from modalrel.syntax import MAX_NESTING, Abstraction, Box, Relativized, formula_depth
from test_acceptance import CAMPAIGN_PARAMS, BoxAsDiamond, LambdaIgnoresArgument


# ---------------------------------------------------------------------------
# Model generation


def test_gen_model_is_deterministic():
    params = GenParams(seed=123, max_states=5, max_objects=6)
    assert gen_model(params) == gen_model(params)


def test_gen_model_minimal_frame():
    model = gen_model(GenParams(seed=1, max_states=1, max_objects=1, max_concepts=1,
                                max_relations=1))
    assert len(model.states) == 1
    validate_model(model)


def test_gen_model_instances_validate():
    params = GenParams(seed=9)
    for i in range(150):
        model = gen_model(case_params(params, i))
        validate_model(model)
        db = build_database(model)
        assert build_database(model_from_database(db)) == db


def test_gen_params_bounds():
    with pytest.raises(ValueError):
        GenParams(max_states=0)
    with pytest.raises(ValueError):
        GenParams(max_states=4, max_objects=3)
    with pytest.raises(ValueError):
        GenParams(max_depth=0)
    GenParams(max_depth=MAX_NESTING - 1, max_free_vars=1)
    with pytest.raises(ValueError, match="max_depth"):
        GenParams(max_depth=MAX_NESTING, max_free_vars=1)


# ---------------------------------------------------------------------------
# Query generation


def test_gen_query_is_deterministic():
    params = GenParams(seed=77, max_states=4, max_objects=6, max_concepts=2, max_relations=1)
    model = gen_model(params)
    assert gen_query(params, model) == gen_query(params, model)


def test_gen_query_round_trips_through_parser():
    params = GenParams(seed=13, max_states=4, max_objects=6)
    for i in range(100):
        local = case_params(params, i)
        model = gen_model(local)
        query = gen_query(local, model)
        text = render_formula(query.formula)
        assert parse_formula(text) == query.formula
        assert set(free_vars(query.formula)) == set(query.target)


def test_gen_query_covers_every_constructor_at_depth_4():
    params = GenParams(seed=42, max_states=4, max_objects=6, max_depth=4)
    seen = set()
    for i in range(200):
        local = case_params(params, i)
        model = gen_model(local)
        query = gen_query(local, model)
        seen |= set(constructor_histogram(query.formula))
    assert seen >= {
        "Eq", "Neq", "Not", "And", "Or", "Diamond", "Box", "Exists", "Forall", "Abstraction"
    }


def test_generated_queries_are_no_deeper_than_their_bound():
    # each unused target variable adds a conjunction above the body
    params = GenParams(seed=5, max_states=4, max_objects=6, max_concepts=2, max_depth=5,
                       max_free_vars=3)
    for i in range(200):
        local = case_params(params, i)
        model = gen_model(local)
        formula = gen_query(local, model).formula
        assert formula_depth(formula) <= params.max_depth + params.max_free_vars


def test_gen_query_depth_zero_is_atomic():
    params = GenParams(seed=3, max_states=3, max_objects=4, max_concepts=2, max_relations=1,
                       max_depth=1, max_free_vars=1)
    model = gen_model(params)
    query = gen_query(params, model)
    histogram = constructor_histogram(query.formula)
    assert sum(histogram.values()) <= 4  # shallow by construction


# ---------------------------------------------------------------------------
# Differential checks


def test_check_on_worked_queries(example_model):
    report = check(example_model, parse_query("@code = 'b'"))
    assert report.equal
    assert report.direct == report.algebra == RelationInstance.of(1, [("3",)])

    report = check(example_model, parse_query("[COMP] @code = 'b'"))
    assert report.equal
    assert report.direct == RelationInstance.of(1, [("2",), ("3",), ("4",)])


def test_check_reports_untranslatable_as_error(example_model):
    report = check(example_model, parse_query("exists %g . @%g = 'b'"))
    assert not report.equal
    assert report.error is not None and report.error.startswith("UntranslatableTerm")
    assert report.direct is not None  # the direct engine already answered


class LambdaDropsEquation(Translator):
    """Deliberately broken: binds a relativized argument's variable to any object."""

    def _abstraction(self, var, body, argument, context):
        if isinstance(argument, Relativized):
            return self._exists(var, body, context)
        return super()._abstraction(var, body, argument, context)


class ForallAsExists(Translator):
    """Deliberately broken: translates a universal as an existential."""

    def _forall(self, var, body, context):
        return self._exists(var, body, context)


def test_corrupted_box_translation_is_detected(example_model):
    query = parse_query("[COMP] @code = 'b'")
    report = check(example_model, query, BoxAsDiamond(example_model))
    assert not report.equal
    assert report.witness is not None
    only_one_side = (
        report.witness in report.direct.tuples) != (report.witness in report.algebra.tuples)
    assert only_one_side


def test_mutations_trip_the_campaign():
    factories = (
        BoxAsDiamond,
        LambdaIgnoresArgument,
        ForallAsExists,
        LambdaDropsEquation,
    )
    for factory in factories:
        summary = run_campaign(CAMPAIGN_PARAMS, 1000, translator_factory=factory)
        assert summary.failed >= 1
        assert summary.first_failure is not None
        assert summary.first_failure.witness is not None


# ---------------------------------------------------------------------------
# Campaigns


def test_small_campaign_passes_and_is_deterministic():
    params = GenParams(seed=42, max_states=4, max_objects=6, max_concepts=2, max_depth=3,
                       max_free_vars=1)
    first = run_campaign(params, 10)
    second = run_campaign(params, 10)
    assert first.passed == 10 and first.ok
    assert first.render() == second.render()


def test_campaign_rejects_zero_cases():
    with pytest.raises(ValueError):
        run_campaign(GenParams(seed=1), 0)


def test_campaign_with_concept_vars_routes_untranslatable():
    params = GenParams(seed=7, max_states=4, max_objects=5, max_free_vars=1,
                       allow_concept_vars=True)
    summary = run_campaign(params, 150)
    assert summary.ok
    assert summary.untranslatable > 0
    assert summary.passed + summary.untranslatable == 150


def test_campaign_json_report_shape():
    params = GenParams(seed=2, max_states=3, max_objects=4, max_concepts=2, max_relations=1,
                       max_depth=3, max_free_vars=1)
    summary = run_campaign(params, 5)
    import json

    payload = json.loads(summary.to_json())
    assert payload["status"] == "OK"
    assert payload["cases"] == 5
    assert payload["first_failure"] is None


# ---------------------------------------------------------------------------
# Shrinking


def test_shrinking_produces_small_failing_case():
    summary = run_campaign(CAMPAIGN_PARAMS, 1000, translator_factory=BoxAsDiamond)
    failure = summary.first_failure
    assert failure is not None and not failure.equal
    # the shrunk witness formula still contains the broken construct
    assert "[" in failure.query_text or "<lam" in failure.query_text


def test_shrink_preserves_mismatch(example_model):
    query = parse_query("[COMP] @code = 'b' & (@id = '1' | @id != '1')")
    factory = BoxAsDiamond
    model, small = shrink_case(example_model, query, factory)
    report = check(model, small, factory(model))
    assert not report.equal and report.error is None
    assert len(model.states) <= len(example_model.states)
