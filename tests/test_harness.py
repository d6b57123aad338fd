from __future__ import annotations

import json
from dataclasses import FrozenInstanceError

import pytest

from modalrel import (
    ConceptConst,
    ConceptVar,
    DegreeError,
    GenParams,
    Projection,
    RelationInstance,
    Translator,
    UntranslatableTerm,
    build_database,
    check,
    dump_model,
    free_vars,
    gen_model,
    gen_query,
    parse_formula,
    parse_model,
    parse_query,
    render_formula,
    run_campaign,
    validate_model,
)
from modalrel import harness
from modalrel.cli import EXIT_MISMATCH
from modalrel.harness import case_params, constructor_histogram, shrink_case
from modalrel.schema import model_from_database
from modalrel.syntax import (
    MAX_NESTING,
    Abstraction,
    Box,
    Relativized,
    formula_depth,
    subformulas,
)
from modalrel.translate import Plan
from test_acceptance import CAMPAIGN_PARAMS, BoxAsDiamond, LambdaIgnoresArgument
from test_cli import run_main


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
        assert parse_model(dump_model(model)) == model
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
    assert isinstance(report.error, UntranslatableTerm)
    assert report.error.__traceback__ is None  # a report holds no frames
    assert report.direct is not None  # the direct engine already answered


def test_report_is_immutable(example_model):
    report = check(example_model, parse_query("@code = 'b'"))
    for name in ("direct", "algebra", "error", "seconds"):
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, None)


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


class ExistsProjectsPastDegree(Translator):
    """Deliberately broken: projects each existential's plan on a column it lacks."""

    def _exists(self, var, body, context):
        plan = super()._exists(var, body, context)
        return Plan(Projection((99,), plan.expr), plan.columns)


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


def test_mismatch_is_reported_the_same_in_text_and_json():
    summary = run_campaign(CAMPAIGN_PARAMS, 1000, translator_factory=BoxAsDiamond)
    assert summary.render().split("status: MISMATCH\n")[1] == (
        "first failure: case 3\n"
        "  model: d42b900a13de\n"
        "  query: [R1] (@c1 != '5' & @c1 = '1')  [target: (none)]\n"
        "  witness: (3) present in direct only\n"
        "  rows: direct=1 algebra=0\n"
    )
    expected = {
        "case": 3,
        "model": "d42b900a13de",
        "query": "[R1] (@c1 != '5' & @c1 = '1')",
        "target": [],
        "error": None,
        "witness": ["3"],
        "witness_side": "direct only",
        "direct": [["3"]],
        "algebra": [],
    }
    assert list(json.loads(summary.to_json())["first_failure"].items()) == list(expected.items())


def test_engine_error_is_reported_with_its_type():
    summary = run_campaign(CAMPAIGN_PARAMS, 1000, translator_factory=ExistsProjectsPastDegree)
    error = "DegreeError: projection index 99 out of range (expected 2, found 99)"
    assert summary.failed == 1
    assert summary.render().endswith(f"\n  error: {error}\n")
    assert json.loads(summary.to_json())["first_failure"]["error"] == error
    # the error is shrunk as a mismatch is: to a case that raises it still
    failure = summary.first_failure
    assert "\n  query: forall ?q1 . !?x0 != '4'  [target: ?x0]\n" in summary.render()
    assert len(failure.model.states) == 1
    assert not any(failure.model.relations.values())
    recheck = check(failure.model, failure.query, ExistsProjectsPastDegree(failure.model))
    assert isinstance(recheck.error, DegreeError)


class AlwaysUntranslatable(Translator):
    """Deliberately broken: has no plan for any query."""

    def translate_query(self, query):
        raise UntranslatableTerm("no plan for any query")


class ConceptConstUntranslatable(Translator):
    """Deliberately broken: ``_concept_column`` with its ``not`` dropped, so a
    relativized concept constant has no plan."""

    def _concept_column(self, concept, context):
        bound = context.lookup(concept) if isinstance(concept, ConceptVar) else concept
        if isinstance(bound, ConceptConst):
            raise UntranslatableTerm(f"@{concept} has no algebra translation")
        return self._concepts[bound.symbol]


@pytest.mark.parametrize("factory", [AlwaysUntranslatable, ConceptConstUntranslatable])
def test_untranslatable_query_fails_a_campaign_without_concept_vars(factory):
    # without concept variables the generator makes only translatable queries
    summary = run_campaign(CAMPAIGN_PARAMS, 1000, translator_factory=factory)
    assert (summary.failed, summary.untranslatable, summary.ok) == (1, 0, False)
    failure = summary.first_failure
    assert isinstance(failure.error, UntranslatableTerm)
    assert f"\n  error: UntranslatableTerm: {failure.error}\n" in summary.render()
    # an engine raised, so no two answers were compared
    assert summary.status == json.loads(summary.to_json())["status"] == "ERROR"
    # the shrunk case is one that still has no plan
    recheck = check(failure.model, failure.query, factory(failure.model))
    assert isinstance(recheck.error, UntranslatableTerm)
    assert len(failure.model.states) == 1


def test_fuzz_exits_on_an_untranslatable_query_without_concept_vars(monkeypatch, capsys):
    monkeypatch.setattr(harness, "Translator", AlwaysUntranslatable)
    assert run_main(["fuzz", "--seed", "42", "--cases", "5"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "failed: 1\nuntranslatable (direct engine only): 0\nstatus: ERROR\n" in out
    assert "first failure: case 0\n" in out


def test_shrink_keeps_an_untranslatable_case_untranslatable(example_model):
    query = parse_query("<COMP> @code = 'b' & (@id = '1' | @id != '1')")
    shrunk = shrink_case(check(example_model, query, AlwaysUntranslatable(example_model)),
                         AlwaysUntranslatable)
    assert isinstance(shrunk.error, UntranslatableTerm)
    assert len(shrunk.model.states) == 1
    assert not subformulas(shrunk.query.formula)


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
    query_text = render_formula(failure.query.formula)
    assert "[" in query_text or "<lam" in query_text


def test_shrink_preserves_mismatch(example_model):
    query = parse_query("[COMP] @code = 'b' & (@id = '1' | @id != '1')")
    factory = BoxAsDiamond
    shrunk = shrink_case(check(example_model, query, factory(example_model)), factory)
    model, small = shrunk.model, shrunk.query
    report = check(model, small, factory(model))
    assert not report.equal and report.error is None
    assert len(model.states) <= len(example_model.states)
    # the shrinker hands back the report of the case it kept, not a stale one
    assert (shrunk.direct, shrunk.algebra, shrunk.error) == (report.direct, report.algebra, None)
    assert (shrunk.witness, shrunk.witness_side) == (report.witness, report.witness_side)
    assert render_formula(small.formula) != render_formula(query.formula)
