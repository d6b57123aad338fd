from __future__ import annotations

import ast
import copy
import itertools
import pickle
import random
import sys
import typing
from pathlib import Path

import pytest
import yaml

from modalrel import (
    Abstraction,
    And,
    Box,
    ConceptConst,
    ConceptVar,
    Diamond,
    Eq,
    Exists,
    Forall,
    Implies,
    KripkeModel,
    ModalQuery,
    ModelInvariantError,
    Neq,
    Not,
    ObjectConst,
    ObjectVar,
    Or,
    QuerySyntaxError,
    Relativized,
    RelationInstance,
    UnknownConstant,
    UnknownRelation,
    UntranslatableTerm,
    answer_direct,
    build_database,
    check_query,
    dump_model,
    free_vars,
    load_model,
    model_fingerprint,
    parse_formula,
    parse_model,
    parse_query,
    run_campaign,
    validate_model,
)
from modalrel import kripke, relalg, syntax, translate
from modalrel.harness import GenParams, case_params, gen_model, gen_query
from modalrel.kripke import compile_formula, satisfies
from test_acceptance import CAMPAIGN_PARAMS
from test_bench_contract import load_perfbench


def state_with_id(model, id_value):
    return next(s for s in model.states if model.id_of(s) == id_value)


# ---------------------------------------------------------------------------
# Term evaluation, read through the compiled atoms that compare terms


def test_term_eval_relativized_concept(example_model):
    # @code is 'b' at state 3, and 'b' nowhere else
    atom = Eq(Relativized(ConceptConst("code")), ObjectConst("b"))
    assert compile_formula(example_model, atom, ())(()) == {state_with_id(example_model, "3")}


def test_term_eval_variable_lookup(example_model):
    # ?x reads its value from the assignment, the same at every state
    x = ObjectVar("x")
    holds = compile_formula(example_model, Eq(x, ObjectConst("a")), (x,))
    assert holds(("a",)) == set(example_model.states)
    assert holds(("b",)) == set()


def test_term_eval_concept_variable(example_model):
    # %g bound to code denotes the concept code, so @%g is @code: 'd' at state 1
    g = ConceptVar("g")
    atom = Eq(Relativized(g), Relativized(ConceptConst("code")))
    same = compile_formula(example_model, atom, (g,))
    assert same(("code",)) == set(example_model.states)
    at_d = compile_formula(example_model, Eq(Relativized(g), ObjectConst("d")), (g,))
    assert at_d(("code",)) == {state_with_id(example_model, "1")}


@pytest.mark.parametrize("term", ["?x", parse_formula("?x = ?x")], ids=["string", "formula"])
def test_term_eval_rejects_what_is_not_a_term(example_model, term):
    # the constructor refuses such an atom, so it is assembled field by field
    atom = object.__new__(Eq)
    for name, value in (("left", term), ("right", ObjectConst("a"))):
        object.__setattr__(atom, name, value)
    with pytest.raises(TypeError, match="not a term"):
        compile_formula(example_model, atom, ())


def test_direct_engine_runs_no_python_hash_or_eq(example_model):
    # Variables hash on their identity in C; a Python __hash__ or __eq__ of a
    # syntax class run per lookup would show up here as call events.
    codes = {
        method.__code__
        for value in vars(syntax).values()
        if isinstance(value, type)
        for method in (value.__hash__, value.__eq__)
        if hasattr(method, "__code__")
    }
    assert codes, "the formula classes define __eq__ and __hash__ in Python"
    query = parse_query("[COMP] <COMP> @code = ?x", ["?x"])
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code))
    try:
        answer_direct(example_model, query)
    finally:
        sys.setprofile(None)
    # the probe saw the compiled closures run: the modal steps, the inner one memoised
    assert compile_formula(example_model, query.formula, query.target).__code__ in calls
    assert kripke._memoised(None, (0,)).__code__ in calls
    assert [code.co_name for code in calls if code in codes] == []


def test_term_eval_unknown_constant(example_model):
    # the compiled atoms read checked terms only: check_query is what rejects these
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


# one formula of each constructor, with one object variable free
ONE_OF_EACH_FORMULA = [
    "@code = ?x",
    "@code != ?x",
    "!(@code = ?x)",
    "@code = ?x & @id = '1'",
    "@code = ?x | @id = '1'",
    "@code = ?x -> @id = '1'",
    "<COMP> @code = ?x",
    "[COMP] @code = ?x",
    "exists ?y . @code = ?y & ?y != ?x",
    "forall ?y . @code = ?y -> ?y = ?x",
    "<lam ?y . <COMP> @code = ?y>(@code)",
]


def test_satisfies_reads_every_formula_constructor(example_model):
    # a constructor added to syntax.Formula without a compiler rule fails here
    formulas = [parse_formula(text) for text in ONE_OF_EACH_FORMULA]
    assert [type(f) for f in formulas] == list(typing.get_args(syntax.Formula))
    x = ObjectVar("x")
    for formula in formulas:
        for state in example_model.states:
            for value in sorted(example_model.objects):
                truth = satisfies(example_model, state, {x: value}, formula)
                assert truth is reference_holds(example_model, state, {x: value}, formula)


class Equals(Eq):
    """A subclass of a constructor, which is not a formula."""


class Possibly(Diamond):
    """A subclass of a memoised constructor, which is not a formula."""


@pytest.mark.parametrize(
    "formula",
    [Equals(ObjectConst("a"), ObjectConst("a")),
     Possibly("COMP", parse_formula("@code = 'b'")),
     ObjectConst("a"),
     "@code = 'b'"],
    ids=["Eq-subclass", "Diamond-subclass", "term", "string"],
)
def test_satisfies_rejects_what_is_not_a_formula(example_model, formula):
    # the compiler rejects it, before any state is read
    state = state_with_id(example_model, "1")
    with pytest.raises(TypeError, match="not a formula"):
        satisfies(example_model, state, {}, formula)


class Named(ObjectConst):
    """A subclass of a term constructor, which is not a term."""


@pytest.mark.parametrize(
    "formula, message",
    [(Equals(ObjectConst("a"), ObjectConst("a")), "not a formula"),
     (Possibly("COMP", parse_formula("@code = 'b'")), "not a formula"),
     (Not(Equals(Relativized(ConceptConst("code")), ObjectConst("b"))), "not a formula"),
     (Eq(Relativized(ConceptConst("code")), Named("b")), "not a term")],
    ids=["Eq-subclass", "Diamond-subclass", "nested-Eq-subclass", "term-subclass"],
)
def test_both_engines_refuse_a_subclass_of_a_constructor(example_model, formula, message):
    # check_query makes the one exact-class check, before either engine reads a state
    query = ModalQuery(formula, ())
    with pytest.raises(TypeError, match=message):
        check_query(example_model, formula)
    with pytest.raises(TypeError, match=message):
        answer_direct(example_model, query)
    with pytest.raises(TypeError, match=message):
        translate.translate_query(query, example_model)


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
# The compiled oracle's memos, against a memo-free reference


def _domain(model, var):
    return sorted(model.objects) if isinstance(var, ObjectVar) else list(model.concepts)


def reference_value(model, assignment, term, state):
    """The value of a term, read off the model by a plain recursive walk."""
    match term:
        case ObjectVar() | ConceptVar():
            return assignment[term]
        case Relativized(inner):
            return model.concepts[reference_value(model, assignment, inner, state)][state]
        case ObjectConst(symbol) | ConceptConst(symbol):
            return symbol


def reference_holds(model, state, assignment, formula):
    """The truth of a formula by the textbook recursive definition, with no
    memo and nothing from the package's evaluator."""
    def holds(at, f, bound=assignment):
        return reference_holds(model, at, bound, f)

    def value(term):
        return reference_value(model, assignment, term, state)

    match formula:
        case Eq(left, right):
            return value(left) == value(right)
        case Neq(left, right):
            return value(left) != value(right)
        case Not(body):
            return not holds(state, body)
        case And(left, right):
            return holds(state, left) and holds(state, right)
        case Or(left, right):
            return holds(state, left) or holds(state, right)
        case Implies(left, right):
            return not holds(state, left) or holds(state, right)
        case Diamond(relation, body):
            return any(holds(nxt, body) for nxt in model.successors(relation, state))
        case Box(relation, body):
            return all(holds(nxt, body) for nxt in model.successors(relation, state))
        case Exists(var, body):
            return any(holds(state, body, {**assignment, var: v}) for v in _domain(model, var))
        case Forall(var, body):
            return all(holds(state, body, {**assignment, var: v}) for v in _domain(model, var))
        case Abstraction(var, body, argument):
            return holds(state, body, {**assignment, var: value(argument)})
    raise TypeError(f"not a formula: {formula!r}")


def answer_unmemoised(model, query):
    """``answer_direct`` spelt out with the memo-free ``reference_holds``."""
    rows = set()
    for values in itertools.product(*[_domain(model, var) for var in query.target]):
        assignment = dict(zip(query.target, values))
        for state in model.states:
            if reference_holds(model, state, assignment, query.formula):
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
    # A body that is not a formula raises when the formula compiles, so at
    # every state, also those where the diamond is vacuous; check_query
    # refuses it before answer_direct compiles.
    formula = Diamond("COMP", Not(None))
    for state in example_model.states:
        with pytest.raises(TypeError, match="not a formula: None"):
            satisfies(example_model, state, {}, formula)
    with pytest.raises(TypeError, match="not a formula: None"):
        answer_direct(example_model, ModalQuery(formula, ()))
    # A concept variable bound to an undeclared concept raises when read.
    # The memoised box labels every state at once, so it reads the concept
    # whatever state is asked about, also where the box is vacuous.  The
    # raise records nothing, so asking again raises again.
    g = ConceptVar("g")
    formula = Not(parse_formula("[COMP] @%g = 'b'"))
    for state in example_model.states:
        with pytest.raises(KeyError):
            satisfies(example_model, state, {g: "nope"}, formula)
    label = compile_formula(example_model, formula, (g,))
    for _ in range(2):
        with pytest.raises(KeyError):
            label(("nope",))
    assert label(("code",)) == {example_model.states[0]}


def _direct_only_cases(seed):
    """The cases of a 1000-case concept-variable campaign that have no algebra plan."""
    for model, query in _cases(GenParams(seed=seed, allow_concept_vars=True), 1000):
        try:
            translate.translate_query(query, model)
        except UntranslatableTerm:
            yield model, query


def test_generated_answers_match_unmemoised():
    # concept-variable queries have no algebra plan, so only this checks them;
    # the campaigns' direct-only cases catch a memo key that drops concept values
    direct_only = [*_direct_only_cases(42), *_direct_only_cases(2026)]
    assert len(direct_only) == 81 + 74  # the fuzz summaries' untranslatable counts
    for model, query in [*_sample_cases(200, allow_concept_vars=True), *direct_only]:
        assert answer_direct(model, query) == answer_unmemoised(model, query)


# Two shapes beyond the benchmark's: a value some successor has that is not
# the state's own id, and a state's id that no successor's value equals.
RANGE_SHAPES = (
    ("exists ?y . <R> @c = ?y & !(@id = ?y)", ()),
    ("forall ?y . <R> @c = ?y -> @id != ?y", ()),
)


def test_benchmark_sparse_shapes_answer_alike():
    # the shapes and the two smaller models of the benchmark's sparse_scaling workload
    workloads = load_perfbench("workloads")
    shapes = [(text, target) for _, text, target in workloads.SCALING_SHAPES] + list(RANGE_SHAPES)
    for n in (25, 50):
        model = workloads.sparse_model(n, random.Random(42))
        for text, target in shapes:
            query = parse_query(text, list(target))
            direct = answer_direct(model, query)
            assert direct == relalg.evaluate(translate.translate_query(query, model),
                                             build_database(model))
            assert direct == answer_unmemoised(model, query)


@pytest.mark.parametrize("n", [200, 400])
def test_larger_sparse_models_answer_alike(n):
    # past the benchmark's sizes, where a box's body holds in few of the states
    workloads = load_perfbench("workloads")
    model = workloads.sparse_model(n, random.Random(42))
    for text, target in [workloads.SCALING_SHAPES[1][1:], *RANGE_SHAPES]:
        query = parse_query(text, list(target))
        assert answer_direct(model, query) == relalg.evaluate(
            translate.translate_query(query, model), build_database(model))


def test_one_image_answers_the_benchmark_shapes_forward_and_back(monkeypatch):
    # the six sparse shapes on n=100, forward then in reverse, through one
    # image: each answer is the oracle's, and each table is built once
    workloads = load_perfbench("workloads")
    model = workloads.sparse_model(100, random.Random(42))
    db = build_database(model)
    assert build_database(model) is db
    built = []
    kernel = relalg._kernel

    def spy(split, keys, *layout):
        compiled = kernel(split, keys, *layout)
        if split is not None or not keys:
            return compiled

        def builder(rows, *constants):
            table = compiled(rows, *constants)
            # a kept table is built from a base relation's own rows
            if any(rows is inst.tuples for inst in db.relations.values()):
                built.append((keys, *layout, constants))
            return table

        return builder

    monkeypatch.setattr(relalg, "_kernel", spy)
    shapes = [(text, target) for _, text, target in workloads.SCALING_SHAPES] + list(RANGE_SHAPES)
    for text, target in shapes + shapes[::-1]:
        query = parse_query(text, list(target))
        assert relalg.evaluate(translate.translate_query(query, model), build_database(model)) \
            == answer_direct(model, query)
    assert built and len(built) == len(set(built)) == len(db._tables)
    # an equal model that is another object builds an image of its own
    for other in (pickle.loads(pickle.dumps(model)), model.replace(),
                  workloads.sparse_model(100, random.Random(42))):
        assert other == model and other._database is None
        assert build_database(other) == db and build_database(other) is not db


class CountingReads(dict):
    """A predecessor index that counts the states it is asked about."""

    reads = 0

    def __getitem__(self, state):
        self.reads += 1
        return super().__getitem__(state)


def _count_predecessor_reads(model, relation):
    model._predecessors[relation] = counting = CountingReads(model._predecessors[relation])
    return counting


def test_box_reads_the_predecessors_of_the_states_where_its_body_holds():
    workloads = load_perfbench("workloads")
    model = workloads.sparse_model(100, random.Random(42))
    body = model._preimages["c"]["o1"]
    assert len(body) == 1
    counting = _count_predecessor_reads(model, "R")
    label = compile_formula(model, parse_formula("[R] @c = 'o1'"), ())
    truth = label(())
    assert 0 < counting.reads <= len(body)
    assert truth == {s for s in model.states if set(model.successors("R", s)) <= body}


class CountingWrites(dict):
    """A successor index that counts the relations written into it."""

    writes = 0

    def __setitem__(self, relation, index):
        self.writes += 1
        super().__setitem__(relation, index)


def test_successor_sets_are_built_by_the_first_box_over_a_relation():
    workloads = load_perfbench("workloads")
    model = workloads.sparse_model(25, random.Random(42))
    assert model._successors == {}
    counting = CountingWrites()
    object.__setattr__(model, "_successors", counting)
    diamond = parse_query("<R> @c = ?x", ["?x"])
    assert answer_direct(model, diamond) == answer_unmemoised(model, diamond)
    assert counting.writes == 0 and not counting
    box = parse_query("[R] <R> @c = ?x", ["?x"])
    answer = answer_direct(model, box)
    assert counting.writes == 1 and set(counting) == {"R"}
    successors, sinks = counting["R"]
    assert successors == {s: frozenset(model.successors("R", s)) for s in model.states}
    assert sinks == {s for s in model.states if not model.successors("R", s)}
    boxes = parse_query("[R] @c = 'o1' | [R] !(@c = 'o2')")
    assert answer_direct(model, boxes) == answer_unmemoised(model, boxes)
    assert answer_direct(model, box) == answer == answer_unmemoised(model, box)
    assert counting.writes == 1


def _chain_model(n, k):
    """States s0..s(n-1), a chain s_i -> s_(i+1) that ends in a state with no
    successor, and s_i -> s0 from each odd i; ``c`` is 'a' at the first k."""
    states = tuple(f"s{i}" for i in range(n))
    edges = {(states[i], states[i + 1]) for i in range(n - 1)}
    edges |= {(states[i], states[0]) for i in range(1, n, 2)}
    return KripkeModel(
        states=states,
        relations={"R": frozenset(edges)},
        objects=frozenset(states) | {"a", "b"},
        concepts={"id": dict(zip(states, states)),
                  "c": {s: "a" if i < k else "b" for i, s in enumerate(states)}},
        object_constants=frozenset(states) | {"a", "b"},
    )


@pytest.mark.parametrize("n, k", [(8, 2), (8, 3), (9, 2), (9, 3)])
def test_box_switches_form_past_a_quarter_of_the_states(n, k):
    # a body that holds in at most n // 4 states is read from those states;
    # past that, the box reads the predecessors of the states where it fails
    model = _chain_model(n, k)
    counting = _count_predecessor_reads(model, "R")
    query = parse_query("[R] @c = 'a'")
    direct = answer_direct(model, query)
    assert counting.reads == (k if k <= n // 4 else n - k)
    # the state with no successor and each state before the last 'a'; not
    # s(k-1), whose successor s(k) is 'b'
    assert direct == RelationInstance.of(1, [(f"s{i}",) for i in [*range(k - 1), n - 1]])
    assert direct == answer_unmemoised(model, query)
    assert direct == relalg.evaluate(translate.translate_query(query, model), build_database(model))


# States 3 and 5 have no R-successor, and E has no pairs, so every rule meets
# an empty set: a vacuous [R], a <R> with nothing to reach, a quantifier
# whose body holds nowhere or everywhere.
SPARSE_EDGES_MODEL = """\
objects: ['1', '2', '3', '4', '5', a, b, c]
concepts: [id, c]
states:
  - {id: '1', c: a}
  - {id: '2', c: b}
  - {id: '3', c: a}
  - {id: '4', c: c}
  - {id: '5', c: b}
relations:
  R: [['1', '2'], ['1', '3'], ['2', '3'], ['4', '4'], ['4', '1']]
  E: []
"""

# (query, target, rows of the answer where the rule gives no state or every
# state, None elsewhere): 8 objects and 5 states
EMPTY_SIDE_QUERIES = {
    "diamond": ("<R> @c = ?x", ["?x"], None),
    "box": ("[R] @c = ?x", ["?x"], None),
    "diamond-nowhere": ("<E> ?x = ?x", ["?x"], 0),
    "box-vacuous": ("[E] ?x != ?x", ["?x"], 8 * 5),
    "box-body-nowhere": ("[R] @c = '1'", [], 2),
    "box-of-box": ("[R] [R] @c = ?x", ["?x"], None),
    "diamond-of-box": ("<R> [R] ?x != ?x", ["?x"], None),
    "not-diamond": ("!(<R> @c = ?x)", ["?x"], None),
    "not-box": ("!([R] @c = 'a')", [], None),
    "not-everywhere": ("!(?x = ?x)", ["?x"], 0),
    "exists": ("exists ?y . <R> @c = ?y", [], None),
    "exists-nowhere": ("exists ?y . <E> @c = ?y", [], 0),
    "exists-everywhere": ("exists ?y . [E] @c = ?y", [], 5),
    "forall": ("forall ?y . [R] @c = ?y", [], 2),
    "forall-nowhere": ("forall ?y . <E> @c = ?y", [], 0),
    "forall-everywhere": ("forall ?y . ?y = ?y", [], 5),
    "forall-full-then-not": ("forall ?y . [R] @c != ?y", [], None),
    "and-empty-left": ("<E> ?x = ?x & @c = ?x", ["?x"], 0),
    "or-full-left": ("[E] ?x = ?x | @c = ?x", ["?x"], 8 * 5),
    "implies-empty-left": ("<E> ?x = ?x -> @c = ?x", ["?x"], 8 * 5),
    "implies": ("@c = ?x -> [R] @c = ?x", ["?x"], None),
    "lambda": ("<lam ?y . [R] @c = ?y>(@c)", [], None),
}


@pytest.mark.parametrize("text, target, rows", EMPTY_SIDE_QUERIES.values(),
                         ids=EMPTY_SIDE_QUERIES.keys())
def test_every_rule_answers_alike_on_its_empty_side(text, target, rows):
    model = parse_model(SPARSE_EDGES_MODEL)
    assert [model.id_of(s) for s in model.states if not model.successors("R", s)] == ["3", "5"]
    query = parse_query(text, target)
    direct = answer_direct(model, query)
    assert rows is None or len(direct.tuples) == rows
    assert direct == answer_unmemoised(model, query)
    assert direct == relalg.evaluate(translate.translate_query(query, model), build_database(model))


def test_compiled_engine_refuses_a_formula_past_the_nesting_limit(example_model):
    # the compiler recurses once per level, so a deep formula is refused with
    # the parser's error before it compiles: one level past the limit, and
    # far past the interpreter's stack
    chain = [parse_formula("@code = 'b'")]
    while len(chain) <= 3000:
        chain.append(Not(chain[-1]))
    state = state_with_id(example_model, "3")
    assert satisfies(example_model, state, {}, chain[syntax.MAX_NESTING])
    message = f"^query nests more than {syntax.MAX_NESTING} operator"
    for formula in (chain[syntax.MAX_NESTING + 1], chain[3000]):
        with pytest.raises(QuerySyntaxError, match=message):
            compile_formula(example_model, formula, ())
        with pytest.raises(QuerySyntaxError, match=message):
            satisfies(example_model, state, {}, formula)


def test_answer_direct_does_not_memoise_the_root(example_model, monkeypatch):
    # each value of the target asks for the root once, so a root entry would
    # never be read; the inner diamond stays memoised, keyed on ?x's slot, and
    # its set is computed once per value of ?x
    memoised, decided = [], []
    original = kripke._memoised

    def recording(decide, slots):
        def counted(env):
            decided.append(env)
            return decide(env)

        memoised.append((decide.__code__.co_name, slots))
        return original(counted, slots)

    monkeypatch.setattr(kripke, "_memoised", recording)
    query = parse_query("[COMP] <COMP> @code = ?x", ["?x"])
    got = answer_direct(example_model, query)
    assert got == answer_unmemoised(example_model, query)
    assert memoised == [("modal", (0,))]
    assert sorted(decided) == [(value,) for value in sorted(example_model.objects)]


def test_memo_key_without_variable_values_trips_the_campaign(monkeypatch):
    # a broken oracle is caught by the same differential campaign: here every
    # memo's key slots drop every value, so its key is the state alone
    original = kripke._memoised
    monkeypatch.setattr(kripke, "_memoised", lambda decide, slots: original(decide, ()))
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


def _cases(params, n):
    for i in range(n):
        local = case_params(params, i)
        model = gen_model(local)
        query = gen_query(local, model)
        yield model, query


def _sample_cases(n, **overrides):
    params = GenParams(seed=99, max_states=4, max_objects=5, max_concepts=2, max_depth=3,
                       max_free_vars=1, **overrides)
    return _cases(params, n)


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


def test_model_names_the_value_two_states_share_as_id(example_model):
    # built directly, past model_from_data's own check: the ids are 1, 1, 2, 3
    ids = dict(zip(example_model.states, ["1", "1", "2", "3"]))
    with pytest.raises(ModelInvariantError, match="duplicate id value '1'"):
        example_model.replace(concepts={**example_model.concepts, "id": ids})


def test_model_copies_are_equal_models_that_answer_alike(example_model):
    query = parse_query("<COMP> @code = ?x", ["?x"])
    for again in (pickle.loads(pickle.dumps(example_model)), copy.deepcopy(example_model),
                  example_model.replace()):
        assert type(again) is KripkeModel and again == example_model
        assert answer_direct(again, query) == answer_direct(example_model, query)
    with pytest.raises(AttributeError, match="'states'"):
        example_model.states = ()


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
        base.replace(**change)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_load_model_turns_an_unreadable_file_into_a_model_error(tmp_path, kind):
    path = {"missing": tmp_path / "missing.yaml", "directory": tmp_path,
            "not-utf8": tmp_path / "latin1.yaml"}[kind]
    (tmp_path / "latin1.yaml").write_bytes(b"objects: [\xff]\n")
    with pytest.raises(ModelInvariantError) as info:
        load_model(path)
    assert str(info.value).startswith(f"cannot read model file {path}: ")


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


def test_database_image_is_read_only():
    model = parse_model("objects: [a, b]\nconcepts: [id]\nstates: [{id: a}]\nrelations: {R: []}\n")
    db = build_database(model)
    with pytest.raises(TypeError):
        db.relations["Sta"] = db.relations["Obj"]
    with pytest.raises(TypeError):
        del db.relations["Rel"]
    assert db.relations["Sta"] == RelationInstance.of(1, [("a",)])
    assert build_database(model) is db and pickle.loads(pickle.dumps(db)) == db


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
