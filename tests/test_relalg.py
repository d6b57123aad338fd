from __future__ import annotations

import copy
import functools
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modalrel import (
    CON,
    OBJ,
    REL,
    STA,
    BaseRelation,
    Column,
    Constant,
    DatabaseInstance,
    DegreeError,
    Difference,
    QuerySyntaxError,
    Intersection,
    Product,
    Projection,
    RelationInstance,
    Selection,
    SelectionPredicate,
    Union,
    UnknownRelation,
    build_database,
    degree_of,
    evaluate,
    gen_model,
    gen_query,
    parse_algebra,
    parse_query,
    render_algebra,
    to_tsv,
    translate_query,
)
from modalrel import relalg
from modalrel.harness import case_params
from modalrel.relalg import BINARY_OPERATORS, MAX_PLAN_DEPTH
from test_acceptance import CAMPAIGN_PARAMS

STA_REL = BaseRelation(STA)
REL_REL = BaseRelation(REL)
CON_REL = BaseRelation(CON)
OBJ_REL = BaseRelation(OBJ)


def eq(left, right):
    return SelectionPredicate(left, "=", right)


# ---------------------------------------------------------------------------
# Instances


def test_instance_rejects_ragged_tuples():
    with pytest.raises(DegreeError):
        RelationInstance.of(2, [("a", "b"), ("c",)])


def test_degree_zero_holds_at_most_the_empty_tuple():
    unit = RelationInstance.of(0, [()])
    assert unit.tuples == {()}
    with pytest.raises(DegreeError):
        RelationInstance.of(0, [("a",)])


def test_to_tsv_sorted_with_optional_header():
    inst = RelationInstance.of(2, [("3", "b"), ("1", "d")])
    assert to_tsv(inst) == "1\td\n3\tb\n"
    assert to_tsv(inst, header=True) == "1\t2\n1\td\n3\tb\n"
    assert to_tsv(RelationInstance.of(1, [])) == ""


def test_database_requires_schema_degrees(example_db):
    with pytest.raises(DegreeError):
        DatabaseInstance(
            relations={**example_db.relations, REL: RelationInstance.of(2, [])},
            relation_names=example_db.relation_names,
        )
    with pytest.raises(DegreeError):
        DatabaseInstance(
            relations={STA: example_db.relations[STA]},
            relation_names=example_db.relation_names,
        )


# ---------------------------------------------------------------------------
# Static degrees


def test_degree_of_product(example_db):
    assert degree_of(Product(STA_REL, REL_REL), example_db.schema) == 5


def test_degree_of_empty_projection(example_db):
    assert degree_of(Projection((), STA_REL), example_db.schema) == 0


def test_union_needs_compatible_degrees(example_db):
    with pytest.raises(DegreeError):
        degree_of(Union(CON_REL, REL_REL), example_db.schema)


def test_degree_errors(example_db):
    with pytest.raises(UnknownRelation):
        degree_of(BaseRelation("Foo"), example_db.schema)
    with pytest.raises(DegreeError):
        degree_of(Projection((3,), STA_REL), example_db.schema)
    with pytest.raises(DegreeError):
        degree_of(Selection(eq(Column(4), Constant("x")), STA_REL), example_db.schema)
    with pytest.raises(DegreeError):
        Column(0)


# ---------------------------------------------------------------------------
# Evaluation per the operator definitions


def test_selection_by_constant(example_db):
    got = evaluate(Selection(eq(Column(2), Constant("b")), STA_REL), example_db)
    assert got == RelationInstance.of(2, [("3", "b")])


def test_projection_after_selection(example_db):
    got = evaluate(Projection((1,), Selection(eq(Column(2), Constant("b")), STA_REL)), example_db)
    assert got == RelationInstance.of(1, [("3",)])


def test_projection_with_repeats(example_db):
    got = evaluate(Projection((1, 1), Selection(eq(Column(2), Constant("b")), STA_REL)), example_db)
    assert got == RelationInstance.of(2, [("3", "3")])


def test_product_identity_with_empty_tuple(example_db):
    unit = Projection((), STA_REL)  # evaluates to {()} since Sta is non-empty
    assert evaluate(unit, example_db) == RelationInstance.of(0, [()])
    c = Selection(eq(Column(1), Constant("c")), OBJ_REL)  # the object c, one row
    got = evaluate(Product(unit, c), example_db)
    assert got == RelationInstance.of(1, [("c",)])
    got = evaluate(Product(c, unit), example_db)
    assert got == RelationInstance.of(1, [("c",)])


def test_constant_constant_selection(example_db):
    always = evaluate(Selection(eq(Constant("a"), Constant("a")), STA_REL), example_db)
    assert always == example_db.relations[STA]
    never = evaluate(Selection(eq(Constant("a"), Constant("b")), STA_REL), example_db)
    assert never.degree == 2 and not never.tuples


def test_column_column_selection(example_db):
    same = evaluate(Selection(eq(Column(1), Column(2)), Product(OBJ_REL, OBJ_REL)), example_db)
    assert same == RelationInstance.of(2, [(o, o) for (o,) in example_db.relations[OBJ].tuples])


def test_not_equal_selection(example_db):
    pred = SelectionPredicate(Column(2), "!=", Constant("b"))
    got = evaluate(Projection((1,), Selection(pred, STA_REL)), example_db)
    assert got == RelationInstance.of(1, [("1",), ("2",), ("4",)])


def test_set_operators(example_db):
    con = example_db.relations[CON]
    obj = example_db.relations[OBJ]
    assert evaluate(Union(CON_REL, OBJ_REL), example_db).tuples == con.tuples | obj.tuples
    assert evaluate(Difference(OBJ_REL, CON_REL), example_db).tuples == obj.tuples - con.tuples
    assert evaluate(Intersection(OBJ_REL, CON_REL), example_db).tuples == obj.tuples & con.tuples


def test_evaluate_checks_degrees_before_running(example_db):
    with pytest.raises(DegreeError):
        evaluate(Union(CON_REL, REL_REL), example_db)


# ---------------------------------------------------------------------------
# Algebra text round trip


RENDER_TABLE = [
    (Projection((1,), Selection(eq(Column(2), Constant("b")), STA_REL)),
     "(project (1) (select (= 2 'b') Sta))"),
    (Difference(OBJ_REL, CON_REL), "(diff Obj Con)"),
    (Projection((), STA_REL), "(project () Sta)"),
    (Selection(SelectionPredicate(Column(1), "!=", Column(3)), REL_REL),
     "(select (!= 1 3) Rel)"),
    (Intersection(Union(CON_REL, CON_REL), Product(CON_REL, Projection((), STA_REL))),
     "(intersect (union Con Con) (product Con (project () Sta)))"),
]


@pytest.mark.parametrize("expr,text", RENDER_TABLE, ids=[t for _, t in RENDER_TABLE])
def test_render_algebra(expr, text):
    assert render_algebra(expr) == text
    assert parse_algebra(text) == expr


MALFORMED_ALGEBRA = [
    "(select (= 1) Sta)",
    "(select (= 1 2 3) Sta)",
    "(select (== 1 2) Sta)",
    "(project (a) Sta)",
    "(project (1 (2)) Sta)",
    "(project (\u00b2) Sta)",
    "(project (\u0661) Sta)",  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
    "(project (" + "9" * 5000 + ") Sta)",  # more digits than int() converts
    "(const a)",
    "(const 'a')",
    "((a) Sta Sta)",
    "'a'",
    "(product 'a' Sta)",
    "(select (= 0 1) Sta)",
    "(project (0) Sta)",
    "(project (1) " * 3000 + "Sta" + ")" * 3000,
    "(" * 3000,
    "",
    ")",
    "()",
    "Sta Sta",
    "(union Sta)",
    "(select (= 1 2) Sta Sta)",
    "(project 1 Sta)",
    "(project (1) Sta",
]


@pytest.mark.parametrize("text", MALFORMED_ALGEBRA, ids=[t[:24] for t in MALFORMED_ALGEBRA])
def test_malformed_algebra_is_a_syntax_error(text):
    with pytest.raises(QuerySyntaxError):
        parse_algebra(text)


def test_plan_depth_limit():
    text = "(project (1) " * (MAX_PLAN_DEPTH - 1) + "Sta" + ")" * (MAX_PLAN_DEPTH - 1)
    assert degree_of(parse_algebra(text), {STA: 2}) == 1  # the index list is the last level
    with pytest.raises(QuerySyntaxError, match=str(MAX_PLAN_DEPTH)):
        parse_algebra("(project (1) " + text + ")")


def test_deepest_translated_plan_round_trips(example_model):
    # the deepest plan within the query limit, at 387 levels
    query = parse_query("[COMP] " * 64 + "@code = 'b'")
    plan = translate_query(query, example_model)
    text = render_algebra(plan)
    assert parse_algebra(text) == plan
    assert hash(parse_algebra(text)) == hash(plan)
    assert repr(plan) == f"parse_algebra({text!r})"
    assert copy.deepcopy(plan) == plan
    assert pickle.loads(pickle.dumps(plan)) == plan


def test_campaign_plans_round_trip():
    for i in range(200):
        local = case_params(CAMPAIGN_PARAMS, i)
        model = gen_model(local)
        plan = translate_query(gen_query(local, model), model)
        assert parse_algebra(render_algebra(plan)) == plan


ALGEBRA_TOKENS = [
    "(", ")", "'", "''", "'a'", "select", "project", *BINARY_OPERATORS,
    "=", "!=", "0", "1", "2", STA, REL, CON, OBJ,
]


@functools.cache
def _campaign_plan_tokens(i: int) -> tuple[str, ...]:
    local = case_params(CAMPAIGN_PARAMS, i)
    model = gen_model(local)
    text = render_algebra(translate_query(gen_query(local, model), model))
    return tuple(re.findall(r"'[^']*'|[()]|[^\s()']+", text))


@st.composite
def _edited_campaign_plans(draw):
    """A rendered campaign plan with one token inserted, dropped or replaced."""
    tokens = list(_campaign_plan_tokens(draw(st.integers(0, 9))))
    at = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["insert", "drop", "replace"]))
    if edit == "drop":
        del tokens[at]
    else:
        tokens[at:at + (edit == "replace")] = [draw(st.sampled_from(ALGEBRA_TOKENS))]
    return " ".join(tokens)


@given(st.one_of(
    st.lists(st.sampled_from(ALGEBRA_TOKENS), max_size=16).map(" ".join),
    _edited_campaign_plans(),
))
@settings(max_examples=200, deadline=None)
def test_algebra_text_is_a_plan_or_a_syntax_error(text):
    try:
        plan = parse_algebra(text)
    except QuerySyntaxError:
        return
    assert parse_algebra(render_algebra(plan)) == plan


# ---------------------------------------------------------------------------
# Algebraic laws on random instances

_values = st.sampled_from(["a", "b", "c", "d"])


def _instances(degree):
    return st.builds(
        lambda rows: RelationInstance.of(degree, rows),
        st.frozensets(st.tuples(*[_values] * degree), max_size=12),
    )


# Sta of degree 2 (id plus one concept); every table drawn independently.
_databases = st.builds(
    lambda sta, rel, con, obj: DatabaseInstance(
        relations={STA: sta, REL: rel, CON: con, OBJ: obj},
        relation_names=frozenset({"a", "b", "c", "d"}),
    ),
    _instances(2),
    _instances(3),
    _instances(1),
    _instances(1),
)


@given(_databases)
@settings(max_examples=100)
def test_intersection_via_double_difference(db):
    # A ∩ B = A − (A − B), with B the first and last columns of Rel
    a, b = STA_REL, Projection((1, 3), REL_REL)
    assert evaluate(Intersection(a, b), db) == evaluate(Difference(a, Difference(a, b)), db)


@given(_databases)
@settings(max_examples=50)
def test_product_associativity(db):
    a, b, c = CON_REL, STA_REL, OBJ_REL
    assert evaluate(Product(Product(a, b), c), db) == evaluate(Product(a, Product(b, c)), db)


@given(_databases)
@settings(max_examples=50)
def test_selection_and_projection_bounds(db):
    rows = db.relations[STA].tuples
    selected = evaluate(Selection(eq(Column(1), Constant("a")), STA_REL), db)
    assert selected.tuples <= rows
    projected = evaluate(Projection((1,), STA_REL), db)
    assert len(projected.tuples) <= len(rows)


# ---------------------------------------------------------------------------
# A chain of selections over a product runs as a join


def _satisfies(row, predicate):
    """The meaning of one predicate on one row, spelled out for the tests."""
    values = [row[o.index - 1] if isinstance(o, Column) else o.value
              for o in (predicate.left, predicate.right)]
    return (values[0] == values[1]) == (predicate.op == "=")


def _select_all(predicates, inner):
    for predicate in predicates:
        inner = Selection(predicate, inner)
    return inner


def _filtered_product(product, predicates, db):
    left, right = evaluate(product.left, db).tuples, evaluate(product.right, db).tuples
    rows = {t + u for t in left for u in right}
    return {row for row in rows if all(_satisfies(row, p) for p in predicates)}


_SCHEMA = {STA: 2, REL: 3, CON: 1, OBJ: 1}
_SIDES = [
    STA_REL,
    REL_REL,
    CON_REL,
    Projection((), STA_REL),
    Selection(eq(Column(1), Constant("a")), OBJ_REL),
    Selection(eq(Column(1), Column(2)), Product(OBJ_REL, CON_REL)),
]


def _operands(degree):
    constants = _values.map(Constant)
    if not degree:
        return constants
    return st.one_of(st.integers(1, degree).map(Column), constants)


@st.composite
def _chains(draw):
    product = Product(draw(st.sampled_from(_SIDES)), draw(st.sampled_from(_SIDES)))
    operands = _operands(degree_of(product, _SCHEMA))
    predicate = st.builds(SelectionPredicate, operands, st.sampled_from(["=", "!="]), operands)
    return product, draw(st.lists(predicate, min_size=1, max_size=3))


@given(_databases, _chains())
@settings(max_examples=300)
def test_selection_chain_over_product_filters_the_product(db, chain):
    product, predicates = chain
    got = evaluate(_select_all(predicates, product), db)
    assert got.tuples == _filtered_product(product, predicates, db)


def _db(sta, rel=()):
    return DatabaseInstance(
        relations={
            STA: RelationInstance.of(2, sta),
            REL: RelationInstance.of(3, rel),
            CON: RelationInstance.of(1, [("id",), ("code",)]),
            OBJ: RelationInstance.of(1, [("a",), ("b",)]),
        },
        relation_names=frozenset({"R"}),
    )


# Two states share the code "a", so a join on the code repeats key values.
_REPEATS = _db([("1", "a"), ("2", "a"), ("3", "b")], [("1", "2", "R"), ("2", "3", "R")])
_EMPTY = Difference(OBJ_REL, OBJ_REL)


@pytest.mark.parametrize("product", [Product(_EMPTY, OBJ_REL), Product(OBJ_REL, _EMPTY)])
def test_join_with_an_empty_side(product):
    got = evaluate(Selection(eq(Column(1), Column(2)), product), _REPEATS)
    assert got == RelationInstance.of(2, [])


def test_join_predicate_written_right_to_left():
    # (= 4 1): Rel's target, on the right, equals Sta's id, on the left
    product = Product(STA_REL, REL_REL)
    want = {("2", "a", "1", "2", "R"), ("3", "b", "2", "3", "R")}
    assert evaluate(Selection(eq(Column(4), Column(1)), product), _REPEATS).tuples == want
    assert evaluate(Selection(eq(Column(1), Column(4)), product), _REPEATS).tuples == want


def test_join_predicates_reading_one_side():
    both_left = Selection(eq(Column(1), Column(2)), Product(Product(OBJ_REL, OBJ_REL), CON_REL))
    assert evaluate(both_left, _REPEATS).tuples == {
        (o, o, c) for o in "ab" for c in ("id", "code")
    }
    both_right = Selection(eq(Column(3), Column(2)), Product(CON_REL, Product(OBJ_REL, OBJ_REL)))
    assert evaluate(both_right, _REPEATS).tuples == {
        (c, o, o) for o in "ab" for c in ("id", "code")
    }


def test_join_on_repeated_and_composite_keys():
    product = Product(STA_REL, STA_REL)
    same_code = Selection(eq(Column(2), Column(4)), product)
    assert evaluate(same_code, _REPEATS).tuples == {
        ("1", "a", "1", "a"), ("1", "a", "2", "a"), ("2", "a", "1", "a"),
        ("2", "a", "2", "a"), ("3", "b", "3", "b"),
    }
    same_state = Selection(eq(Column(3), Column(1)), same_code)
    assert evaluate(same_state, _REPEATS).tuples == {
        ("1", "a", "1", "a"), ("2", "a", "2", "a"), ("3", "b", "3", "b"),
    }
    other_state = Selection(SelectionPredicate(Column(3), "!=", Column(1)), same_code)
    assert evaluate(other_state, _REPEATS).tuples == {
        ("1", "a", "2", "a"), ("2", "a", "1", "a"),
    }


def test_eval_degree_matches_static_degree(example_db):
    exprs = [
        Product(STA_REL, REL_REL),
        Projection((), STA_REL),
        Projection((2, 1, 2), STA_REL),
        Union(CON_REL, OBJ_REL),
        Selection(eq(Column(1), Column(5)), Product(STA_REL, REL_REL)),
    ]
    for expr in exprs:
        assert evaluate(expr, example_db).degree == degree_of(expr, example_db.schema)


# ---------------------------------------------------------------------------
# A projection over a join projects each joined row as the join yields it


def _unfused(node, db):
    """The rows of a projection or a selection spelled out: its input evaluated
    whole, then each row projected or filtered."""
    rows = evaluate(node.input, db).tuples
    if isinstance(node, Selection):
        return {row for row in rows if _satisfies(row, node.predicate)}
    return {tuple(row[i - 1] for i in node.indices) for row in rows}


_STA_REL_JOIN = Selection(eq(Column(4), Column(1)), Product(STA_REL, REL_REL))
_SAME_CODE = Selection(eq(Column(2), Column(4)), Product(STA_REL, STA_REL))
_PROJECTED_JOINS = {
    "no-columns": Projection((), _STA_REL_JOIN),
    "no-columns-of-an-empty-join": Projection(
        (), Selection(eq(Column(1), Constant("zz")), _STA_REL_JOIN)
    ),
    "one-column": Projection((3,), _STA_REL_JOIN),
    "repeated-columns": Projection((5, 1, 5, 2), _STA_REL_JOIN),
    "residual-not-equal": Projection(
        (1, 3), Selection(SelectionPredicate(Column(3), "!=", Column(1)), _SAME_CODE)
    ),
    "two-equal-constants": Projection(
        (2, 1), Selection(eq(Constant("a"), Constant("a")), Product(OBJ_REL, CON_REL))
    ),
    "two-unequal-constants": Projection(
        (2,), Selection(eq(Constant("a"), Constant("b")), Product(OBJ_REL, CON_REL))
    ),
    "empty-left-side": Projection(
        (2,), Selection(eq(Column(1), Column(2)), Product(_EMPTY, OBJ_REL))
    ),
    "empty-right-side": Projection((1,), Product(OBJ_REL, _EMPTY)),
    "bare-product": Projection((2, 2), Product(OBJ_REL, CON_REL)),
}


@pytest.mark.parametrize("expr", _PROJECTED_JOINS.values(), ids=_PROJECTED_JOINS.keys())
def test_projection_over_a_join_matches_the_unfused_plan(expr):
    got = evaluate(expr, _REPEATS)
    assert got.degree == len(expr.indices)
    assert got.tuples == _unfused(expr, _REPEATS)


def test_projected_joins_cover_empty_and_nonempty_answers():
    answers = {name: evaluate(expr, _REPEATS).tuples for name, expr in _PROJECTED_JOINS.items()}
    assert answers["no-columns"] == {()}
    assert answers["no-columns-of-an-empty-join"] == set()
    assert answers["one-column"] == {("1",), ("2",)}
    assert answers["residual-not-equal"] == {("1", "2"), ("2", "1")}
    assert answers["two-unequal-constants"] == set()
    assert answers["empty-left-side"] == answers["empty-right-side"] == set()


@given(_databases, _chains(), st.data())
@settings(max_examples=200)
def test_projection_over_selection_chain_projects_the_filtered_product(db, chain, data):
    product, predicates = chain
    degree = degree_of(product, _SCHEMA)
    columns = st.lists(st.integers(1, degree), max_size=4) if degree else st.just([])
    indices = tuple(data.draw(columns))
    for inner in (product, _select_all(predicates, product)):
        projection = Projection(indices, inner)
        assert evaluate(projection, db).tuples == _unfused(projection, db)


# ---------------------------------------------------------------------------
# A projection of a projection picks straight from the inner input


_FILTERED = Selection(SelectionPredicate(Column(3), "!=", Column(1)), _SAME_CODE)
_PROJECTED_PROJECTIONS = {
    # "exists ?y . <COMP> @code = ?y & @id != ?y", with @id read from a Sta join
    "bound-atom-plan": parse_algebra(
        "(project (2) (project (1 2) (select (!= 3 1) (select (= 2 3) (product (project (1 3)"
        " (select (= 5 'COMP') (select (= 2 4) (product (project (1 2) (select (= 3 1)"
        " (product Obj Sta))) Rel)))) Sta)))))"
    ),
    "no-columns": Projection((), Projection((1, 2), _STA_REL_JOIN)),
    "no-columns-of-no-columns": Projection((), Projection((), _STA_REL_JOIN)),
    "repeat-no-columns": Projection((), Projection((), Projection((), _EMPTY))),
    "one-column": Projection((1,), Projection((4,), _FILTERED)),
    "repeated-columns": Projection((2, 1, 2), Projection((3, 3, 1), _FILTERED)),
    "three-levels": Projection((2, 2), Projection((3, 1, 2), Projection((5, 1, 4), _STA_REL_JOIN))),
    "over-a-base-relation": Projection((1, 1), Projection((2,), STA_REL)),
    "over-a-union": Projection((2,), Projection((2, 1), Union(STA_REL, STA_REL))),
}


@pytest.mark.parametrize(
    "expr", _PROJECTED_PROJECTIONS.values(), ids=_PROJECTED_PROJECTIONS.keys()
)
@pytest.mark.parametrize("db", ["example", "repeats"])
def test_projection_of_a_projection_matches_the_two_step_result(expr, db, example_db):
    db = example_db if db == "example" else _REPEATS
    got = evaluate(expr, db)
    assert got.degree == len(expr.indices)
    assert got.tuples == _unfused(expr, db)


def test_projected_projections_cover_empty_and_nonempty_answers(example_db):
    answers = {name: evaluate(expr, _REPEATS).tuples
               for name, expr in _PROJECTED_PROJECTIONS.items()}
    assert answers["no-columns"] == answers["no-columns-of-no-columns"] == {()}
    assert answers["repeat-no-columns"] == set()
    assert answers["repeated-columns"] == {("2", "2", "2"), ("1", "1", "1")}
    assert evaluate(_PROJECTED_PROJECTIONS["bound-atom-plan"], example_db).tuples == {("1",)}


def test_campaign_projections_of_projections_match_the_two_step_result():
    # every selection or projection whose input is a selection or projection
    nested = {}
    for i in range(200):
        local = case_params(CAMPAIGN_PARAMS, i)
        model = gen_model(local)
        plan = translate_query(gen_query(local, model), model)
        db = build_database(model)
        pending = [plan]
        while pending:
            node = pending.pop()
            if isinstance(node, (Selection, Projection)) and isinstance(
                node.input, (Selection, Projection)
            ):
                shape = (type(node).__name__, type(node.input).__name__)
                nested[shape] = nested.get(shape, 0) + 1
                assert evaluate(node, db).tuples == _unfused(node, db)
            pending.extend(
                sub for sub in (getattr(node, child, None) for child in ("input", "left", "right"))
                if sub is not None
            )
    assert nested[("Projection", "Projection")] >= 10
    assert nested[("Selection", "Projection")] >= 10
    assert nested[("Projection", "Selection")] >= 100
    assert nested[("Selection", "Selection")] >= 100


# ---------------------------------------------------------------------------
# Every chain of selections and projections runs as one pass


def _reference(expr, db):
    """The rows of ``expr`` node by node, with no fused chain and no join."""
    match expr:
        case BaseRelation(name):
            return set(db.relations[name].tuples)
        case Selection(predicate, inner):
            return {row for row in _reference(inner, db) if _satisfies(row, predicate)}
        case Projection(indices, inner):
            return {tuple(row[i - 1] for i in indices) for row in _reference(inner, db)}
        case Product(left, right):
            return {t + u for t in _reference(left, db) for u in _reference(right, db)}
        case Union(left, right):
            return _reference(left, db) | _reference(right, db)
        case Difference(left, right):
            return _reference(left, db) - _reference(right, db)
        case Intersection(left, right):
            return _reference(left, db) & _reference(right, db)
    raise TypeError(expr)


_NOT_PRODUCTS = [
    STA_REL,
    REL_REL,
    Union(OBJ_REL, CON_REL),
    Difference(STA_REL, Product(OBJ_REL, OBJ_REL)),
    Intersection(Projection((2, 1), STA_REL), STA_REL),
]


@st.composite
def _mixed_chains(draw):
    """A chain of one to five selections and projections, over a product of two
    ``_SIDES`` or over a source that is not a product."""
    products = st.builds(Product, st.sampled_from(_SIDES), st.sampled_from(_SIDES))
    expr = draw(st.one_of(products, st.sampled_from(_NOT_PRODUCTS)))
    for _ in range(draw(st.integers(1, 5))):
        degree = degree_of(expr, _SCHEMA)
        if draw(st.booleans()):
            operands = _operands(degree)
            expr = Selection(
                SelectionPredicate(draw(operands), draw(st.sampled_from(["=", "!="])),
                                   draw(operands)),
                expr,
            )
        else:
            columns = st.lists(st.integers(1, degree), max_size=4) if degree else st.just([])
            expr = Projection(tuple(draw(columns)), expr)
    return expr


@given(_databases, _mixed_chains())
@example(_REPEATS, parse_algebra(
    "(select (!= 2 1) (project (1 3) (select (= 4 1) (product Sta Rel))))"
))
@example(_REPEATS, parse_algebra("(select (= 'a' 'a') (project () (product Obj Con)))"))
@example(_REPEATS, parse_algebra("(project (1) (select (= 'a' 'b') (project (2 1) Sta)))"))
@example(_REPEATS, parse_algebra("(select (= 1 3) (project (2 2 1) (select (!= 1 'z') Sta)))"))
@example(_REPEATS, parse_algebra(
    "(project (2) (select (= 1 2) (project (3 3 1) (product Sta Obj))))"
))
@settings(max_examples=300)
def test_chain_of_selections_and_projections_matches_the_reference(db, expr):
    got = evaluate(expr, db)
    assert got.degree == degree_of(expr, _SCHEMA)
    assert got.tuples == _reference(expr, db)


def test_selection_over_a_projection_builds_no_set_of_its_own(
    example_model, example_db, monkeypatch
):
    plan = translate_query(
        parse_query("exists ?y . <COMP> @code = ?y & @id != ?y"), example_model
    )
    assert "(select (!= 2 1) (project (1 3) (select " in render_algebra(plan)
    entered = []
    inner_eval = relalg._eval

    def spy(expr, db):
        entered.append(render_algebra(expr))
        return inner_eval(expr, db)

    monkeypatch.setattr(relalg, "_eval", spy)
    assert evaluate(plan, example_db).tuples == {("1",)}
    # the whole plan, then the inner join's projection and its three base relations
    assert len(entered) == 5
    assert not [text for text in entered if text.startswith(("(project (1 3) ", "(select (!= 2 1) "))]
