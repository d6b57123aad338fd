from __future__ import annotations

import ast
import itertools
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from modalrel import (
    And,
    Box,
    ConceptConst,
    ConceptVar,
    Diamond,
    Eq,
    Exists,
    Forall,
    KripkeModel,
    ModalQuery,
    ModelInvariantError,
    Not,
    ObjectConst,
    ObjectVar,
    Or,
    Relativized,
    RelationInstance,
    UnknownConstant,
    UnknownRelation,
    answer_direct,
    check_query,
    dump_model,
    free_vars,
    model_fingerprint,
    parse_formula,
    parse_model,
    parse_query,
    run_campaign,
    validate_model,
)
from modalrel import kripke, relalg, translate
from modalrel.harness import GenParams, case_params, gen_model, gen_query
from modalrel.kripke import Memo, satisfies, term_eval
from test_acceptance import CAMPAIGN_PARAMS


def state_with_id(model, id_value):
    return next(s for s in model.states if model.id_of(s) == id_value)


# ---------------------------------------------------------------------------
# Term evaluation


def test_term_eval_relativized_concept(example_model):
    state = state_with_id(example_model, "3")
    assert term_eval(example_model, {}, Relativized(ConceptConst("code")), state) == "b"


def test_term_eval_variable_lookup(example_model):
    x = ObjectVar("x")
    assert term_eval(example_model, {x: "a"}, x, example_model.states[0]) == "a"


def test_term_eval_concept_variable(example_model):
    g = ConceptVar("g")
    state = state_with_id(example_model, "1")
    assert term_eval(example_model, {g: "code"}, g, state) == "code"
    assert term_eval(example_model, {g: "code"}, Relativized(g), state) == "d"


def test_term_eval_unknown_constant(example_model):
    # term_eval reads checked terms only: check_query is what rejects these
    for term in (ObjectConst("zz"), Relativized(ConceptConst("nope"))):
        with pytest.raises(UnknownConstant):
            check_query(example_model, Eq(term, term))


# ---------------------------------------------------------------------------
# Truth


def test_satisfies_atom_at_state(example_model):
    formula = parse_formula("@code = 'b'")
    assert satisfies(example_model, state_with_id(example_model, "3"), {}, formula)
    assert not satisfies(example_model, state_with_id(example_model, "1"), {}, formula)


def test_identity_atom_holds_everywhere(example_model):
    x = ObjectVar("x")
    for state in example_model.states:
        assert satisfies(example_model, state, {x: "a"}, Eq(x, x))


def test_satisfies_lambda_over_successor_codes(example_model):
    # binds ?y to the state's own code, then asks for a successor with it
    formula = parse_formula("<lam ?y . <COMP> @code = ?y>(@code)")
    state1 = state_with_id(example_model, "1")
    assert not satisfies(example_model, state1, {}, formula)


def test_satisfies_unknown_relation(example_model):
    # the check reads no state, so every state raises, also those without successors
    for text in ("<NOPE> ?x = ?x", "<NOPE> @code = 'b'", "[NOPE] @code = 'b'"):
        formula = parse_formula(text)
        with pytest.raises(UnknownRelation):
            check_query(example_model, formula)
        with pytest.raises(UnknownRelation):
            answer_direct(example_model, ModalQuery(formula, tuple(free_vars(formula))))


# ---------------------------------------------------------------------------
# Direct answers


def test_answer_diamond(example_model):
    got = answer_direct(example_model, parse_query("<COMP> @code = 'b'"))
    assert got == RelationInstance.of(1, [("1",)])


def test_answer_box_vacuous_states(example_model):
    got = answer_direct(example_model, parse_query("[COMP] @code = 'b'"))
    assert got == RelationInstance.of(1, [("2",), ("3",), ("4",)])


def test_answer_one_variable(example_model):
    got = answer_direct(example_model, parse_query("@id = '3' & @code = ?a", ["?a"]))
    assert got == RelationInstance.of(2, [("b", "3")])


def test_answer_degree_without_matches(example_model):
    got = answer_direct(example_model, parse_query("@code = '1' & @code = ?a", ["?a"]))
    assert got.degree == 2 and not got.tuples


def test_empty_target_answers_are_id_values(example_model):
    ids = {example_model.id_of(s) for s in example_model.states}
    for text in ("@code = 'b'", "<COMP> ?q = ?q", "@code != @id"):
        # closed queries: free vars eliminated by quantification where needed
        formula = parse_formula(text)
        if free_vars(formula):
            formula = Exists(free_vars(formula)[0], formula)
        got = answer_direct(example_model, ModalQuery(formula, ()))
        assert {row[0] for row in got.tuples} <= ids


# ---------------------------------------------------------------------------
# The per-query memo


def answer_unmemoised(model, query):
    """``answer_direct`` spelt out with the four-argument ``satisfies``."""
    domains = [sorted(model.objects) if isinstance(v, ObjectVar) else list(model.concepts)
               for v in query.target]
    rows = set()
    for values in itertools.product(*domains):
        assignment = dict(zip(query.target, values))
        for state in model.states:
            if satisfies(model, state, assignment, query.formula):
                rows.add((*values, model.id_of(state)))
    return RelationInstance(len(query.target) + 1, frozenset(rows))


_x, _y = ObjectVar("x"), ObjectVar("y")
# one object, so the memo meets it under {x} and under {x, y}
_shared = Diamond("COMP", Eq(_x, Relativized(ConceptConst("code"))))


@pytest.mark.parametrize(
    "query, expected",
    [
        (ModalQuery(And(Exists(_y, _shared), Not(_shared)), (_x,)), []),
        (ModalQuery(And(Exists(_y, _shared), _shared), (_x,)),
         [("a", "1"), ("b", "1"), ("c", "1")]),
        (parse_query("exists ?y . ?y = @code & exists ?y . <COMP> ?y = @id"), [("1",)]),
        (parse_query("exists %g . <COMP> @%g = ?v", ["?v"]),
         [(v, "1") for v in ("2", "3", "4", "a", "b", "c")]),
        (parse_query("forall %g . [COMP] @%g != ?v", ["?v"]),
         [(v, s) for v in ("1", "2", "3", "4", "a", "b", "c", "d") for s in "234"]
         + [(v, "1") for v in ("1", "d")]),
    ],
    ids=["shared-negated", "shared-conjoined", "shadowed", "concept-exists", "concept-forall"],
)
def test_memo_keeps_answers(example_model, query, expected):
    got = answer_direct(example_model, query)
    assert got == RelationInstance.of(len(query.target) + 1, expected)
    assert got == answer_unmemoised(example_model, query)


def test_memo_records_nothing_that_raised(example_model):
    # A body that is not a formula passes the symbol check and raises only
    # when evaluated: at state 1, which has successors; the diamond is
    # vacuous elsewhere.
    formula = Diamond("COMP", Not(None))
    memo = Memo()
    for state in example_model.states[1:]:
        assert not satisfies(example_model, state, {}, formula, memo)
    for _ in range(2):
        with pytest.raises(TypeError):
            satisfies(example_model, example_model.states[0], {}, formula, memo)
    assert len(memo.truth) == 3
    with pytest.raises(TypeError):
        answer_direct(example_model, ModalQuery(formula, ()))


def test_generated_answers_match_unmemoised():
    # concept-variable queries have no algebra plan, so only this checks them
    for model, query in _sample_cases(200, allow_concept_vars=True):
        assert answer_direct(model, query) == answer_unmemoised(model, query)


def test_answer_direct_does_not_memoise_the_root(example_model, monkeypatch):
    # each (target value, state) pair asks for the root once, so a root entry
    # would never be read; the inner diamond is met again and stays memoised
    memos = []

    class RecordingMemo(Memo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(kripke, "Memo", RecordingMemo)
    query = parse_query("[COMP] <COMP> @code = ?x", ["?x"])
    got = answer_direct(example_model, query)
    assert got == answer_unmemoised(example_model, query)
    (memo,) = memos
    assert memo.truth
    assert {key[0] for key in memo.truth} == {id(query.formula.body)}


def test_memo_key_without_variable_values_trips_the_campaign(monkeypatch):
    # a broken oracle is caught by the same differential campaign
    def key_without_values(memo, formula, state, assignment):
        return id(formula), state

    monkeypatch.setattr(kripke, "_memo_key", key_without_values)
    summary = run_campaign(CAMPAIGN_PARAMS, 1000)
    assert summary.failed >= 1
    assert summary.first_failure is not None
    assert summary.first_failure.witness is not None


def _package_imports(module):
    """(module imported, names or None for the whole module, statement) for
    each import of a package module in ``module``'s source."""
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("modalrel"):
                    yield alias.name.removeprefix("modalrel").lstrip("."), None, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("modalrel")
        ):
            imported = (node.module or "").removeprefix("modalrel").lstrip(".")
            names = {alias.name for alias in node.names}
            if imported:
                yield imported, names, ast.unparse(node)
            else:
                yield from ((name, None, ast.unparse(node)) for name in names)


def _within(names, allowed):
    """Whether imported ``names`` (None: the whole module) are among ``allowed``
    (None: any name)."""
    return allowed is None or (names is not None and names <= allowed)


def test_oracle_imports_nothing_from_the_algebra_side():
    # the engines agreeing is evidence only while they share no evaluation code
    allowed = {"errors": None, "syntax": None, "relalg": {"RelationInstance"}}  # None: any name
    offending = [
        statement for imported, names, statement in _package_imports(kripke)
        if imported not in allowed or not _within(names, allowed[imported])
    ]
    assert not offending, offending


def test_algebra_side_imports_only_the_model_and_the_check_from_the_oracle():
    allowed = {"KripkeModel", "ModalQuery", "check_query"}
    offending = [
        statement for module in (translate, relalg)
        for imported, names, statement in _package_imports(module)
        if imported == "kripke" and not _within(names, allowed)
    ]
    assert not offending, offending


# ---------------------------------------------------------------------------
# Semantic laws on generated models


def _sample_cases(n, **overrides):
    params = GenParams(seed=99, max_states=4, max_objects=5, max_concepts=2, max_depth=3,
                       max_free_vars=1, **overrides)
    for i in range(n):
        local = case_params(params, i)
        model = gen_model(local)
        query = gen_query(local, model)
        yield model, query


def test_box_diamond_duality():
    for model, query in _sample_cases(60):
        rel = sorted(model.relations)[0]
        assignment = {v: sorted(model.objects)[0] for v in query.target}
        for state in model.states:
            box = satisfies(model, state, assignment, Box(rel, query.formula))
            dual = satisfies(model, state, assignment, Not(Diamond(rel, Not(query.formula))))
            assert box == dual


def test_de_morgan():
    from modalrel import And, Or

    for model, query in _sample_cases(60):
        assignment = {v: sorted(model.objects)[0] for v in query.target}
        a = query.formula
        b = Eq(Relativized(ConceptConst("id")), ObjectConst(sorted(model.objects)[0]))
        for state in model.states:
            assert satisfies(model, state, assignment, Not(And(a, b))) == satisfies(
                model, state, assignment, Or(Not(a), Not(b))
            )


def test_quantifier_duality():
    x = ObjectVar("dm")
    for model, query in _sample_cases(60):
        assignment = {v: sorted(model.objects)[0] for v in query.target}
        a = query.formula
        for state in model.states:
            assert satisfies(model, state, assignment, Forall(x, a)) == satisfies(
                model, state, assignment, Not(Exists(x, Not(a)))
            )


def test_abstraction_of_rigid_argument_is_existential_binding():
    from modalrel import Abstraction, And

    y = ObjectVar("rigid")
    for model, query in _sample_cases(40):
        constant = ObjectConst(sorted(model.objects)[0])
        body = Or(query.formula, Eq(y, constant))
        lam = Abstraction(y, body, constant)
        assignment = {v: sorted(model.objects)[0] for v in query.target}
        for state in model.states:
            assert satisfies(model, state, assignment, lam) == satisfies(
                model, state, assignment, Exists(y, And(Eq(y, constant), body))
            )


# ---------------------------------------------------------------------------
# Model files and invariants


def test_model_file_round_trip(example_model):
    text = dump_model(example_model)
    again = parse_model(text)
    assert again == example_model
    assert model_fingerprint(again) == model_fingerprint(example_model)


def test_model_fingerprint_is_pinned(example_model):
    # the first 12 hex digits of the SHA-256 of dump_model's text
    assert model_fingerprint(example_model) == "b681be1a3af0"


def test_model_values_normalized_to_strings(example_model):
    # the YAML file spells ids as numbers; the model sees strings
    assert example_model.objects >= {"1", "4", "a", "d"}
    assert example_model.id_of(example_model.states[0]) == "1"


def test_parse_model_rejects_duplicate_ids(example_model):
    broken = dump_model(example_model).replace("id: '2'", "id: '1'")
    with pytest.raises(ModelInvariantError, match="id must be injective"):
        parse_model(broken)


def test_parse_model_rejects_unknown_relation_endpoint(example_model):
    broken = dump_model(example_model).replace("- ['1', '2']", "- ['1', '9']")
    with pytest.raises(ModelInvariantError, match="unknown state id"):
        parse_model(broken)


def test_parse_model_rejects_missing_fields():
    with pytest.raises(ModelInvariantError, match="missing"):
        parse_model("objects: [a]\nconcepts: [id]\nstates: [{id: a}]\n")


def test_parse_model_requires_concept_totality():
    text = (
        "objects: [a, b]\nconcepts: [id, c1]\nstates:\n  - {id: a}\n"
        "relations: {R: []}\n"
    )
    with pytest.raises(ModelInvariantError):
        parse_model(text)


def test_validate_model_needs_relation_and_concept():
    base = parse_model(
        "objects: [a]\nconcepts: [id]\nstates: [{id: a}]\nrelations: {R: []}\n"
    )
    validate_model(base)
    with pytest.raises(ModelInvariantError, match="relation"):
        validate_model(KripkeModel(base.states, {}, base.objects, base.concepts, base.objects))
    with pytest.raises(ModelInvariantError, match="id"):
        validate_model(KripkeModel(base.states, base.relations, base.objects,
                                   {"other": dict(base.concepts["id"])}, base.objects))
    with pytest.raises(ModelInvariantError, match="object"):
        validate_model(KripkeModel(base.states, base.relations, frozenset(),
                                   base.concepts, frozenset()))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"states": ("s0", "s1", "s0")}, "state handles must be distinct"),
        ({"relations": {"R": frozenset({("s0", "s9")})}}, "references unknown state in pair"),
        ({"concepts": {"id": {"s0": "a"}}}, "concept 'id' must be total on the states"),
    ],
    ids=["repeated-state", "unknown-state", "partial-concept"],
)
def test_model_construction_names_the_broken_invariant(change, message):
    base = parse_model("objects: [a, b]\nconcepts: [id]\nstates: [{id: a}, {id: b}]\n"
                       "relations: {R: [[a, b]]}\n")
    with pytest.raises(ModelInvariantError, match=message):
        replace(base, **change)


def model_text(**fields: str) -> str:
    """A two-state model file, with the given fields' YAML text substituted."""
    text = {"objects": "[a, b]", "concepts": "[id]", "states": "[{id: a}, {id: b}]",
            "relations": "{R: [[a, b]]}", **fields}
    return "".join(f"{name}: {value}\n" for name, value in text.items())


MALFORMED_MODEL_FILES = {
    "not-yaml": ("objects: [a, b\n", "model file is not valid YAML"),
    "not-a-mapping": ("[a, b]\n", "model file must be a mapping"),
    "objects-not-list": (model_text(objects="a"), "'objects' must be a list"),
    "concepts-not-list": (model_text(concepts="id"), "'concepts' must be a list"),
    "states-not-list": (model_text(states="{id: a}"), "'states' must be a list"),
    "repeated-concept": (model_text(concepts="[id, id]"), "concept names must be distinct"),
    "state-not-record": (model_text(states="[a, b]"), "each state must be a record"),
    "relations-not-map": (model_text(relations="[R]"), "'relations' must be a map"),
    "pair-of-three": (model_text(relations="{R: [[a, b, a]]}"), r"pairs must be \[source-id"),
    "pair-not-list": (model_text(relations="{R: [a]}"), r"pairs must be \[source-id"),
    "list-as-object": (model_text(objects="[[a], b]"), r"must be strings or numbers, got \['a'\]"),
    "null-as-value": (model_text(states="[{id: a}, {id: null}]"),
                      "must be strings or numbers, got None"),
    # a long key list is shortened, as reprlib shortens it
    "many-unknown-fields": (
        model_text(states="[{id: a, " + ", ".join(f"k{i}: a" for i in range(100)) + "}, {id: b}]"),
        r"fields \['id', 'k0', 'k1', 'k10', 'k11', 'k12', \.\.\.\] do not match concepts \['id'\]$",
    ),
    "many-fields-equal-as-strings": (
        model_text(states="[{id: a, 1: a, '1': a, " + ", ".join(f"k{i}: a" for i in range(100))
                   + "}, {id: b}]"),
        r"distinct as strings, got \['id', 1, '1', 'k0', 'k1', 'k2', \.\.\.\]$",
    ),
}


@pytest.mark.parametrize("text, message", MALFORMED_MODEL_FILES.values(),
                         ids=MALFORMED_MODEL_FILES.keys())
def test_parse_model_names_what_is_malformed(text, message):
    with pytest.raises(ModelInvariantError, match=message):
        parse_model(text)


def test_model_is_read_only():
    model = parse_model("objects: [a, b]\nconcepts: [id]\nstates: [{id: a}]\nrelations: {R: []}\n")
    with pytest.raises(TypeError):
        model.concepts["id"]["s0"] = "b"
    with pytest.raises(TypeError):
        model.concepts["c"] = {"s0": "a"}
    with pytest.raises(TypeError):
        model.relations["R"] = frozenset({("s0", "s0")})
    assert model.id_of("s0") == "a" and model.relations == {"R": frozenset()}


@pytest.mark.parametrize(
    "objects, concepts, relation",
    [
        (["a\tb"], ["id"], "R"),
        (["it's"], ["id"], "R"),
        (["a"], ["id", "c\nd"], "R"),
        (["a"], ["id"], "R\tS"),
        (["a"], ["id"], "R'x"),
        (["\ud800"], ["id"], "R"),
        (["a"], ["id", "c\udc80"], "R"),
        (["a"], ["id"], "R\ud800"),
    ],
    ids=["object-tab", "object-quote", "concept-newline", "relation-tab", "relation-quote",
         "object-surrogate", "concept-surrogate", "relation-surrogate"],
)
def test_parse_model_rejects_values_tables_cannot_hold(objects, concepts, relation):
    text = yaml.safe_dump(
        {
            "objects": objects,
            "concepts": concepts,
            "states": [{name: objects[0] for name in concepts}],
            "relations": {relation: []},
        }
    )
    with pytest.raises(ModelInvariantError, match="may not contain"):
        parse_model(text)


# Keys that YAML reads as different values but that are equal as strings.
KEYS_EQUAL_AS_STRINGS = {
    "relation-name": (
        "objects: ['1', '2']\nconcepts: [id]\nstates: [{id: 1}, {id: 2}]\n"
        "relations: {1: [[1, 2]], '1': [[2, 1]]}\n"
    ),
    "record-field": (
        "objects: ['1', a, b]\nconcepts: [id, 7]\nstates: [{id: 1, 7: a, '7': b}]\n"
        "relations: {R: []}\n"
    ),
}


@pytest.mark.parametrize("text", KEYS_EQUAL_AS_STRINGS.values(), ids=KEYS_EQUAL_AS_STRINGS.keys())
def test_parse_model_rejects_keys_equal_as_strings(text):
    with pytest.raises(ModelInvariantError, match="distinct"):
        parse_model(text)


def test_concept_value_must_be_object():
    text = "objects: [a]\nconcepts: [id, c1]\nstates: [{id: a, c1: z}]\nrelations: {R: []}\n"
    with pytest.raises(ModelInvariantError, match="not an object"):
        parse_model(text)
