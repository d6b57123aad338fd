from __future__ import annotations

import random
import re
from functools import reduce

import pytest

from modalrel import (
    CON,
    OBJ,
    REL,
    STA,
    Abstraction,
    And,
    BaseRelation,
    Box,
    Column,
    ConceptConst,
    ConceptVar,
    Constant,
    Diamond,
    Difference,
    Eq,
    Exists,
    Forall,
    Intersection,
    KripkeModel,
    ModalQuery,
    ModalRelError,
    Not,
    ObjectConst,
    ObjectVar,
    Or,
    Product,
    Projection,
    QuerySyntaxError,
    Relativized,
    Selection,
    SelectionPredicate,
    Translator,
    Union,
    UnknownConstant,
    UnknownRelation,
    UntranslatableTerm,
    answer_direct,
    build_database,
    check_query,
    degree_of,
    evaluate,
    parse_query,
    render_algebra,
    translate_query,
)
from modalrel.harness import GenParams, case_params, gen_model, gen_query
from modalrel.syntax import MAX_NESTING, parse_formula, subformulas
from modalrel.translate import VarContext, guarded_box
from test_kripke import reference_value

STA_REL = BaseRelation(STA)
REL_REL = BaseRelation(REL)
CODE = Relativized(ConceptConst("code"))
X = ObjectVar("x")
A = ObjectVar("a")
G = ConceptVar("g")


def eq(left, right):
    return SelectionPredicate(left, "=", right)


@pytest.fixture
def translator(example_model):
    return Translator(example_model)


# ---------------------------------------------------------------------------
# Atoms: operands and the columns they cross in


def test_term_ref_context_variable(translator):
    # a variable reads its column in the atom's own plan, which crosses in only
    # that atom's variables: ?a is column 1 whether or not ?x is in the
    # context, as ?x is crossed in only when the plan is padded, at the top
    obj_sta = Product(BaseRelation(OBJ), STA_REL)
    atom = Projection((1, 2), Selection(eq(Column(1), Column(3)), obj_sta))
    assert translator.translate(Eq(A, CODE), VarContext((X, A))) == Product(BaseRelation(OBJ), atom)
    # two variables: the innermost context variable comes first
    pair = Product(Product(BaseRelation(OBJ), BaseRelation(OBJ)), STA_REL)
    assert translator.translate(Eq(A, X), VarContext((X, A))) == Projection(
        (1, 2, 3), Selection(eq(Column(2), Column(1)), pair)
    )


def test_term_ref_relativized_concept(translator):
    # with no variables in the atom the concept lands on its own Sta column
    assert translator.translate(Eq(CODE, ObjectConst("b")), VarContext()) == Projection(
        (1,), Selection(eq(Column(2), Constant("b")), STA_REL)
    )
    assert translator.translate(
        Eq(Relativized(ConceptConst("id")), CODE), VarContext()
    ) == Projection((1,), Selection(eq(Column(1), Column(2)), STA_REL))
    # the atom's own variables shift the Sta columns right: after ?a, @code is
    # column 3; the rest of the context does not, since it is crossed in above
    # the atom
    assert translator.translate(Eq(A, CODE), VarContext((A,))) == Projection(
        (1, 2), Selection(eq(Column(1), Column(3)), Product(BaseRelation(OBJ), STA_REL))
    )
    assert translator.translate(Eq(CODE, ObjectConst("b")), VarContext((X, A))) == Product(
        Product(BaseRelation(OBJ), BaseRelation(OBJ)), ATOMIC_GOLDEN
    )


def test_atom_operand_of_a_rigid_lambda_is_a_constant(translator):
    # a variable λ-bound to a constant adds no column; the atom reads the constant
    lam = Abstraction(ObjectVar("y"), Eq(ObjectVar("y"), CODE), ObjectConst("b"))
    assert translator.translate(lam, VarContext()) == Projection(
        (1,), Selection(eq(Constant("b"), Column(2)), STA_REL)
    )


def test_unknown_and_untranslatable_terms(example_model):
    # the translator reads checked terms only: check_query is what rejects these
    for term in (ObjectConst("zz"), Relativized(ConceptConst("nope"))):
        with pytest.raises(UnknownConstant):
            check_query(example_model, Eq(term, term))
    # @%g has no Sta column when %g is bound to a column, directly or through a λ
    for text, target in (("exists %g . @%g = 'b'", []), ("<lam %h . @%h = 'b'>(%g)", ["%g"])):
        with pytest.raises(UntranslatableTerm):
            translate_query(parse_query(text, target), example_model)


# ---------------------------------------------------------------------------
# Padding to the context, once, at the top


def test_domain_product_single_object_var(translator):
    # a closed formula under one object variable is crossed with Obj, once
    atom = Eq(CODE, ObjectConst("b"))
    assert translator.translate(atom, VarContext((X,))) == Product(BaseRelation(OBJ), ATOMIC_GOLDEN)


def test_domain_product_mixed_kinds(translator, example_db):
    # a concept and an object variable pad with Con x Obj, in context order
    expr = translator.translate(Eq(CODE, ObjectConst("b")), VarContext((G, X)))
    assert expr == Product(Product(BaseRelation(CON), BaseRelation(OBJ)), ATOMIC_GOLDEN)
    assert len(evaluate(expr, example_db).tuples) == 2 * 8


# ---------------------------------------------------------------------------
# Structural goldens for the worked translations

ATOMIC_GOLDEN = Projection(
    (1,), Selection(eq(Column(2), Constant("b")), STA_REL)
)

DIAMOND_GOLDEN = Projection(
    (2,),
    Selection(
        eq(Column(4), Constant("COMP")),
        Selection(eq(Column(1), Column(3)), Product(ATOMIC_GOLDEN, REL_REL)),
    ),
)


def test_atomic_translation_matches_golden_tree(example_model):
    expr = translate_query(parse_query("@code = 'b'"), example_model)
    assert expr == ATOMIC_GOLDEN
    assert render_algebra(expr) == "(project (1) (select (= 2 'b') Sta))"


def test_diamond_translation_matches_golden_tree(example_model):
    expr = translate_query(parse_query("<COMP> @code = 'b'"), example_model)
    assert expr == DIAMOND_GOLDEN


def test_box_translates_via_diamond_dual(example_model, translator):
    box = translator.translate(Box("COMP", Eq(CODE, ObjectConst("b"))), VarContext())
    dual = translator.translate(
        Not(Diamond("COMP", Not(Eq(CODE, ObjectConst("b"))))), VarContext()
    )
    assert box == dual


# ---------------------------------------------------------------------------
# Evaluation goldens (both engines agree on the worked queries)

GOLDEN_ANSWERS = [
    ("@code = 'b'", (), {("3",)}),
    ("@id = '3' & @code = ?a", ("?a",), {("b", "3")}),
    ("<COMP> @code = 'b'", (), {("1",)}),
    ("[COMP] @code = 'b'", (), {("2",), ("3",), ("4",)}),
    ("<lam ?y . <COMP> @code = ?y>(@code)", (), set()),
]


@pytest.mark.parametrize("text,target,expected", GOLDEN_ANSWERS, ids=[t for t, _, _ in GOLDEN_ANSWERS])
def test_translation_evaluates_to_expected_answer(example_model, example_db, text, target, expected):
    query = parse_query(text, list(target))
    expr = translate_query(query, example_model)
    got = evaluate(expr, example_db)
    assert got.tuples == expected
    assert answer_direct(example_model, query) == got


def test_implication_desugars_before_translation(example_model, example_db):
    query = parse_query("@code = 'b' -> @id = '3'")
    got = evaluate(translate_query(query, example_model), example_db)
    assert got == answer_direct(example_model, query)
    assert got.tuples == {("1",), ("2",), ("3",), ("4",)}


def test_quantified_queries_against_direct_engine(example_model, example_db):
    cases = [
        "exists ?x . @code = ?x",
        "forall ?x . ?x = 'a' | ?x != 'a'",
        "forall ?x . <COMP> @code = ?x",
        "exists ?x . @code = ?x & @id = ?x",
        "exists %g . <COMP> <lam %h . @code = 'b'>(%g)",
        "forall %g . @code = 'b' | @code != 'b'",
        # shadowing: a λ variable bound to a column or constant keeps it
        # under an inner binder that reuses a name
        ("<lam ?y . exists ?x . ?y = ?x & @code = ?x>(?x)", ["?x"]),
        "<lam ?y . <COMP> exists ?y . ?y = @code>('b')",
        "<lam %g . <lam ?y . @%g = ?y>(@%g)>(code)",
        "forall ?x . <lam ?z . ?z = ?x>(?x)",
    ]
    for case in cases:
        text, target = case if isinstance(case, tuple) else (case, [])
        query = parse_query(text, target)
        assert evaluate(translate_query(query, example_model), example_db) == answer_direct(
            example_model, query
        )


def test_untranslatable_relativized_variable(example_model):
    query = parse_query("exists %g . @%g = 'b'")
    with pytest.raises(UntranslatableTerm):
        translate_query(query, example_model)
    # the direct engine still answers it: every state has some concept value 'b'?
    got = answer_direct(example_model, query)
    assert got.tuples == {("3",)}


def test_unknown_relation_rejected(example_model):
    with pytest.raises(UnknownRelation):
        translate_query(parse_query("<NOPE> @code = 'b'"), example_model)


def test_concept_lambda_substitutes_argument(example_model, example_db):
    query = parse_query("<lam %g . @%g = 'b'>(code)")
    got = evaluate(translate_query(query, example_model), example_db)
    assert got.tuples == {("3",)}
    assert answer_direct(example_model, query) == got


def test_rigid_lambda_arguments(example_model, example_db):
    for text in ("<lam ?y . ?y = 'b'>('b')", "<lam ?y . @code = ?y>('b')"):
        query = parse_query(text)
        assert evaluate(translate_query(query, example_model), example_db) == answer_direct(
            example_model, query
        )


def test_shadowed_binder_scopes_its_column(example_model, example_db):
    # ?x is both the target and rebound inside; column 1 must track the
    # inner binding only within its scope
    query = parse_query("@code = ?x & (exists ?x . @id = ?x)", ["?x"])
    expr = translate_query(query, example_model)
    got = evaluate(expr, example_db)
    assert got == answer_direct(example_model, query)
    assert got.tuples == {("d", "1"), ("a", "2"), ("b", "3"), ("c", "4")}


@pytest.mark.parametrize(
    "text", ["<lam ?y . 'a' = 'a'>('zz')", "<lam %g . 'a' = 'a'>(nope)"]
)
def test_unknown_lambda_argument_rejected_by_both_engines(example_model, text):
    # the body never uses the variable, yet the argument is still checked
    query = parse_query(text)
    with pytest.raises(UnknownConstant):
        translate_query(query, example_model)
    with pytest.raises(UnknownConstant):
        answer_direct(example_model, query)


@pytest.mark.parametrize(
    "text, error",
    [("@id = @id | <COMP> @code = 'zz'", UnknownConstant),
     ("'a' = 'a' | <NOPE> @code = 'b'", UnknownRelation)],
    ids=["short-circuit-unknown-constant", "short-circuit-unknown-relation"],
)
def test_unreached_unknown_symbol_rejected_by_both_engines(example_model, text, error):
    # the direct engine stops at the true left disjunct, yet the right one is checked
    query = parse_query(text)
    with pytest.raises(error):
        translate_query(query, example_model)
    with pytest.raises(error):
        answer_direct(example_model, query)


UNDECLARED = "undeclared"

# Rewrites of an atom that add one symbol no generated model declares.
PLANTS = {
    "object-constant": lambda atom: Or(atom, Eq(ObjectConst(UNDECLARED), ObjectConst(UNDECLARED))),
    "concept-under-at": lambda atom: Or(
        atom, Eq(Relativized(ConceptConst(UNDECLARED)), Relativized(ConceptConst("id")))
    ),
    "concept-lambda-argument": lambda atom: Abstraction(
        ConceptVar("planted"), atom, ConceptConst(UNDECLARED)
    ),
    "relation": lambda atom: Diamond(UNDECLARED, atom),
}


def _plant_in_last_atom(formula, plant):
    """``formula`` with its last atom, reading left to right, replaced by ``plant(atom)``."""
    children = subformulas(formula)
    if not children:
        return plant(formula)
    field = "right" if len(children) == 2 else "body"
    return formula.replace(**{field: _plant_in_last_atom(getattr(formula, field), plant)})


def _error_of(call, *args):
    """Name of the ``ModalRelError`` that ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except ModalRelError as exc:
        return type(exc).__name__
    return None


@pytest.mark.parametrize("kind", PLANTS)
def test_engines_raise_the_same_error_on_a_planted_symbol(kind):
    # campaign cases i < 200, one plant each, whether or not evaluation reaches it
    expected = "UnknownRelation" if kind == "relation" else "UnknownConstant"
    outcomes = []
    for i in range(list(PLANTS).index(kind), 200, len(PLANTS)):
        local = case_params(GenParams(seed=42), i)
        model = gen_model(local)
        query = gen_query(local, model)
        planted = ModalQuery(_plant_in_last_atom(query.formula, PLANTS[kind]), query.target)
        outcomes.append(
            (_error_of(answer_direct, model, planted), _error_of(translate_query, planted, model))
        )
    assert all(outcome == (expected, expected) for outcome in outcomes), outcomes


# ---------------------------------------------------------------------------
# Properties over generated inputs


def _generated_cases(n, seed, **overrides):
    params = GenParams(seed=seed, max_states=5, max_objects=6, max_depth=3, **overrides)
    for i in range(n):
        local = case_params(params, i)
        model = gen_model(local)
        yield model, gen_query(local, model)


def test_translation_degree_is_context_plus_one():
    for model, query in _generated_cases(80, seed=31):
        expr = translate_query(query, model)
        db = build_database(model)
        assert degree_of(expr, db.schema) == len(query.target) + 1


def test_translate_refuses_a_formula_past_the_nesting_limit(translator):
    # the translator recurses several frames per level, so a deep formula is
    # refused with the parser's error before it is planned: one level past
    # the limit, and far past the interpreter's stack
    chain = [parse_formula("@code = 'b'")]
    while len(chain) <= 3000:
        chain.append(Not(chain[-1]))
    at_limit = ModalQuery(chain[MAX_NESTING], ())
    plan = translator.translate(at_limit.formula, VarContext())
    assert plan == translator.translate_query(at_limit)
    message = f"^query nests more than {MAX_NESTING} operator"
    for formula in (chain[MAX_NESTING + 1], chain[3000]):
        with pytest.raises(QuerySyntaxError, match=message):
            translator.translate(formula, VarContext())


def test_padding_identity_for_unused_variable():
    # crossing with the variable's domain equals translating under the
    # extended context, whenever the variable does not occur
    fresh = ObjectVar("pad")
    for model, query in _generated_cases(40, seed=37):
        translator = Translator(model)
        db = build_database(model)
        ctx = VarContext(tuple(query.target))
        extended = translator.translate(query.formula, ctx.prepend(fresh))
        padded = Product(BaseRelation(OBJ), translator.translate(query.formula, ctx))
        assert evaluate(extended, db) == evaluate(padded, db)


def _nodes(expr):
    yield expr
    for child in ("input", "left", "right"):
        sub = getattr(expr, child, None)
        if sub is not None:
            yield from _nodes(sub)


def test_translation_has_no_empty_projection():
    # the acceptance campaign's bounds; an empty context adds no {()} factor
    params = GenParams(seed=42)
    for i in range(200):
        local = case_params(params, i)
        model = gen_model(local)
        expr = translate_query(gen_query(local, model), model)
        assert not any(
            isinstance(node, Projection) and not node.indices for node in _nodes(expr)
        )


def test_plan_depends_only_on_its_free_variables():
    # the bound ?v is crossed in by its own atom alone: f's plan, closed,
    # carries no column for it and gains no domain leaf under its scope
    v = ObjectVar("v")

    def domain_leaves(expr):
        return sum(
            isinstance(node, BaseRelation) and node.name in (OBJ, CON) for node in _nodes(expr)
        )

    closed = [(model, query) for model, query in _generated_cases(200, seed=59) if not query.target]
    assert len(closed) >= 60
    for model, query in closed[:60]:
        translator = Translator(model)
        wrapped = Exists(v, And(Eq(v, Relativized(ConceptConst("id"))), query.formula))
        plain = translator.translate(query.formula, VarContext())
        scoped = translator.translate(wrapped, VarContext())
        assert domain_leaves(scoped) == domain_leaves(plain) + 1


def test_box_duality_is_structural_on_generated_formulas():
    # a box the translator builds as its dual is that dual, node for node;
    # every box, guarded or not, answers as the direct engine does
    for model, query in _generated_cases(60, seed=41):
        translator = Translator(model)
        ctx = VarContext(tuple(query.target))
        relation = sorted(model.relations)[0]
        box = translator.translate(Box(relation, query.formula), ctx)
        if not guarded_box(translator._plan(query.formula, ctx)):
            dual = translator.translate(Not(Diamond(relation, Not(query.formula))), ctx)
            assert box == dual
        boxed = ModalQuery(Box(relation, query.formula), query.target)
        assert evaluate(box, build_database(model)) == answer_direct(model, boxed)


RANGE_RESTRICTED = [
    ("?x = @code", "x"),
    ("'a' = ?x", "x"),
    ("?x = ?y", ""),
    ("?x = 'a' & ?y != ?x", "x"),
    ("?x != 'a' & ?x = @code", "x"),
    ("?x = @id & ?x != @code", "x"),
    ("?x = @code & ?x != @id", "x"),
    ("<COMP> ?x = @code & <COMP> ?x = @id", "x"),
    ("<COMP> ?x != @code & <COMP> ?x = @id", "x"),
    ("?x = @code & <COMP> ?y = @id", "xy"),
    ("?x = @code & <COMP> ?y != @id", "x"),
    ("?x = @code | ?x = 'a'", "x"),
    ("?x = @code | ?y = 'a'", ""),
    ("<COMP> (?x = @code & ?y = @id)", "xy"),
    ("exists ?y . ?y = @code & ?x = ?y", ""),
    ("exists ?x . ?x = @code", ""),
    ("exists ?z . ?x = @code", "x"),
    ("<lam ?z . ?z = @code>(?x)", "x"),
    ("<lam ?z . ?z = @code>('a')", ""),
    ("<lam ?z . ?x = ?z>(@code)", ""),
    ("!(?x = @code)", ""),
    ("?x != @code", ""),
    ("?x = @code -> ?y = @code", ""),
    ("[COMP] ?x = @code", ""),
    ("forall ?z . ?x = @code", ""),
]


@pytest.mark.parametrize("text, names", RANGE_RESTRICTED, ids=[t for t, _ in RANGE_RESTRICTED])
def test_range_restricted_variables(text, names, translator):
    ctx = VarContext((X, ObjectVar("y")))
    want = {ctx.lookup(ObjectVar(name)) for name in names}
    assert translator._plan(parse_formula(text), ctx).restricted == want


def test_guarded_box_shares_its_candidates(example_model, translator):
    # [COMP] @code = ?x: the states with no COMP-successor under every ?x,
    # and the candidates <COMP> @code = ?x less those with a failing successor
    query = parse_query("[COMP] @code = ?x", ["?x"])
    plan = translator.translate_query(query)
    assert isinstance(plan, Union)
    vacuous, candidates, failing = plan.left, plan.right.left, plan.right.right
    assert vacuous.left == BaseRelation(OBJ)
    successors = failing.input.left
    assert successors.input.input.left is candidates
    # the edges, the candidates and the edges into the body's rows are shared
    labels = re.findall(r"#[0-9]+[=#]", render_algebra(plan))
    assert sorted(set(labels)) == ["#1#", "#1=", "#2#", "#2=", "#3#", "#3="]
    answer = evaluate(plan, build_database(example_model))
    assert answer == answer_direct(example_model, query)
    objects = {row[0] for row in build_database(example_model).relations[OBJ].tuples}
    assert answer.tuples == {(x, state) for x in objects for state in ("2", "3", "4")}


class NoVacuous(Translator):
    """Deliberately broken: a guarded box drops the states with no successor."""

    def _guarded_box(self, relation, inner, context):
        plan = super()._guarded_box(relation, inner, context)
        return plan._replace(expr=plan.expr.right)


class CandidatesOnly(Translator):
    """Deliberately broken: a guarded box is its candidates, ``<R> f``."""

    def _guarded_box(self, relation, inner, context):
        plan = super()._guarded_box(relation, inner, context)
        return plan._replace(expr=plan.expr.right.left)


def _guarded_box_cases(n, seed):
    """``[R] (v1 = @c1 & ... & g)`` for generated g: every free variable of
    g, or a fresh ?x if it has none, is range-restricted by its own atom."""
    for model, query in _generated_cases(n, seed):
        if not all(isinstance(var, ObjectVar) for var in query.target):
            continue
        variables = query.target or (X,)
        concepts = sorted(model.concepts)
        guards = [
            Eq(var, Relativized(ConceptConst(concepts[i % len(concepts)])))
            for i, var in enumerate(variables)
        ]
        for relation in sorted(model.relations):
            body = reduce(And, [*guards, query.formula])
            yield model, ModalQuery(Box(relation, body), tuple(variables))


def _guarded_box_mismatches(factory) -> int:
    mismatches = 0
    for model, query in _guarded_box_cases(60, seed=47):
        translator, ctx = factory(model), VarContext(query.target)
        assert guarded_box(translator._plan(query.formula.body, ctx))
        plan = translator.translate_query(query)
        mismatches += evaluate(plan, build_database(model)) != answer_direct(model, query)
    return mismatches


def test_guarded_box_answers_on_generated_bodies():
    assert _guarded_box_mismatches(Translator) == 0


@pytest.mark.parametrize("mutant", [NoVacuous, CandidatesOnly], ids=lambda m: m.__name__)
def test_guarded_box_mutants_are_caught(mutant):
    assert _guarded_box_mismatches(mutant) > 0


def test_forall_duality_is_structural_on_generated_formulas():
    fresh = ObjectVar("univ")
    for model, query in _generated_cases(60, seed=43):
        translator = Translator(model)
        ctx = VarContext(tuple(query.target))
        forall = translator.translate(Forall(fresh, query.formula), ctx)
        dual = translator.translate(Not(Exists(fresh, Not(query.formula))), ctx)
        assert forall == dual


def test_relativized_lambda_is_its_definition_on_generated_formulas():
    fresh = ObjectVar("lam")
    for model, query in _generated_cases(60, seed=53):
        translator = Translator(model)
        ctx = VarContext(tuple(query.target))
        for concept in sorted(model.concepts):
            argument = Relativized(ConceptConst(concept))
            lam = translator.translate(Abstraction(fresh, query.formula, argument), ctx)
            definition = translator.translate(
                Exists(fresh, And(Eq(fresh, argument), query.formula)), ctx
            )
            assert lam == definition


def test_atomic_equivalence_for_every_assignment_and_state():
    """For equality atoms, term-level evaluation and membership in the
    translated image must agree on every assignment and every state."""
    import itertools

    x, y = ObjectVar("x"), ObjectVar("y")
    for model, _ in _generated_cases(25, seed=47):
        translator = Translator(model)
        db = build_database(model)
        concept = sorted(model.concepts)[0]
        constant = sorted(model.object_constants)[0]
        atoms = [
            (Eq(x, Relativized(ConceptConst(concept))), (x,)),
            (Eq(x, y), (x, y)),
            (Eq(ObjectConst(constant), Relativized(ConceptConst(concept))), ()),
            (Eq(ObjectConst(constant), ObjectConst(constant)), ()),
        ]
        for atom, variables in atoms:
            image = evaluate(
                translator.translate(atom, VarContext(variables)), db
            ).tuples
            domains = [sorted(model.objects)] * len(variables)
            for values in itertools.product(*domains):
                assignment = dict(zip(variables, values))
                for state in model.states:
                    left = reference_value(model, assignment, atom.left, state)
                    right = reference_value(model, assignment, atom.right, state)
                    row = (*values, model.id_of(state))
                    assert (left == right) == (row in image)


# ---------------------------------------------------------------------------
# An atom whose variables the other conjunct binds is a selection on it


def _not_equal_source(expr):
    """The one ``!=`` selection of ``expr``, and the node below its selection chain."""
    not_equal = [
        node for node in _nodes(expr)
        if isinstance(node, Selection) and node.predicate.op == "!="
    ]
    assert len(not_equal) == 1
    source = not_equal[0].input
    while isinstance(source, Selection):
        source = source.input
    return not_equal[0], source


def test_bound_atom_reads_id_from_the_state_column(example_model, example_db):
    for text in (
        "exists ?y . <COMP> @code = ?y & @id != ?y",
        "<lam %g . exists ?y . <COMP> @code = ?y & @%g != ?y>(id)",
    ):
        query = parse_query(text)
        expr = translate_query(query, example_model)
        # one Obj x Sta, for the atom under the diamond; the != compares ?y,
        # column 1, with the plan's state column, which holds @id: no Sta is joined
        assert render_algebra(expr).count("Sta") == 1
        assert render_algebra(expr).count("(product Obj Sta)") == 1
        not_equal, source = _not_equal_source(expr)
        assert not_equal.predicate == SelectionPredicate(Column(2), "!=", Column(1))
        assert not isinstance(source, Product)
        assert evaluate(expr, example_db) == answer_direct(example_model, query)


def test_bound_atom_on_another_concept_joins_sta(example_model, example_db):
    query = parse_query("exists ?y . <COMP> @code = ?y & @code != ?y")
    expr = translate_query(query, example_model)
    _, source = _not_equal_source(expr)
    assert isinstance(source, Product) and source.right == STA_REL
    assert evaluate(expr, example_db) == answer_direct(example_model, query)


def test_bound_atom_without_a_concept_is_a_bare_selection(translator):
    # ?x = 'b' reads no concept, so the selection needs no Sta join
    left = Diamond("COMP", Eq(CODE, X))
    plain = translator.translate(left, VarContext((X,)))
    for formula in (And(left, Eq(X, ObjectConst("b"))), And(Eq(X, ObjectConst("b")), left)):
        got = translator.translate(formula, VarContext((X,)))
        assert got == Selection(eq(Column(1), Constant("b")), plain)


def _sparse_model(n, rng):
    """n states with ids o1..on, four R-successors each, and a concept c."""
    states = tuple(f"s{i}" for i in range(1, n + 1))
    objects = [f"o{i}" for i in range(1, n + 1)]
    edges = {(state, f"s{j}") for state in states for j in rng.sample(range(1, n + 1), 4)}
    return KripkeModel(
        states=states,
        relations={"R": frozenset(edges)},
        objects=frozenset(objects),
        concepts={"id": dict(zip(states, objects)), "c": {s: rng.choice(objects) for s in states}},
        object_constants=frozenset(objects),
    )


@pytest.mark.parametrize(
    "text, target",
    [
        ("<R> @c = 'o1'", []),
        ("[R] <R> @c = ?x", ["?x"]),
        ("exists ?y . <R> @c = ?y & @id != ?y", []),
        ("<lam ?y . <R> @c = ?y>(@c)", []),
    ],
    ids=["diamond", "box-diamond", "exists", "lambda"],
)
def test_sparse_shapes_agree_with_the_direct_engine(text, target):
    model = _sparse_model(25, random.Random(5))
    query = parse_query(text, target)
    got = evaluate(translate_query(query, model), build_database(model))
    assert got == answer_direct(model, query)


@pytest.mark.parametrize(
    "text, target, error",
    [
        ("exists %g . <COMP> @code = 'b' & @%g = 'b'", [], UntranslatableTerm),
        ("exists %g . @%g = 'b' & <COMP> @code = 'b'", [], UntranslatableTerm),
        ("<COMP> @code = ?x & @%g = ?x", ["?x", "%g"], UntranslatableTerm),
        ("<COMP> @code = ?x & @%g = @id", ["?x", "%g"], UntranslatableTerm),
        ("<COMP> @code = ?x & @id = @%g", ["?x", "%g"], UntranslatableTerm),
        ("<COMP> @code = ?x & @nope = ?x", ["?x"], UnknownConstant),
        ("@nope != ?x & <COMP> @code = ?x", ["?x"], UnknownConstant),
        ("<COMP> @code = ?x & ?x != 'zz'", ["?x"], UnknownConstant),
    ],
)
def test_bad_atom_on_the_filtered_side_is_rejected(example_model, text, target, error):
    with pytest.raises(error):
        translate_query(parse_query(text, target), example_model)
