from __future__ import annotations

import copy
import functools
import itertools
import pickle
import random
import re
import time

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
    answer_direct,
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
from modalrel.relalg import BINARY_OPERATORS
from modalrel.syntax import MAX_NESTING, formula_depth
from test_acceptance import CAMPAIGN_PARAMS
from test_bench_contract import load_perfbench

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


VALUE_DEGREE_ERRORS = {
    "negative-degree": (lambda db: RelationInstance(-1, frozenset()), "non-negative"),
    "sta-without-id": (
        lambda db: DatabaseInstance(
            {**db.relations, STA: RelationInstance.of(0, [()])}, db.relation_names
        ),
        "at least one column",
    ),
    "selection-operator": (
        lambda db: SelectionPredicate(Column(1), "<", Constant("a")),
        "operator must be '=' or '!='",
    ),
}


@pytest.mark.parametrize("build, message", VALUE_DEGREE_ERRORS.values(), ids=VALUE_DEGREE_ERRORS)
def test_algebra_values_check_themselves(example_db, build, message):
    with pytest.raises(DegreeError, match=message):
        build(example_db)


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
    # README: a column index is 1 to 18 digits
    (Projection((int("1" * 18),), STA_REL), "(project (" + "1" * 18 + ") Sta)"),
    # a shared operator is written once, then referred to by its label; a
    # base relation is a leaf, written wherever it occurs
    (Union(*[Projection((1,), STA_REL)] * 2), "(union #1=(project (1) Sta) #1#)"),
    (Difference(*[Difference(*[Projection((1,), STA_REL)] * 2)] * 2),
     "(diff #1=(diff #2=(project (1) Sta) #2#) #1#)"),
]


def test_equal_plans_share_the_same_subplans(example_db):
    shared = parse_algebra("(union #1=(project (1) Sta) #1#)")
    copied = parse_algebra("(union (project (1) Sta) (project (1) Sta))")
    assert shared != copied
    assert shared.left is shared.right
    assert evaluate(shared, example_db) == evaluate(copied, example_db)
    # a label on a base relation shares nothing
    assert parse_algebra("(union #1=Sta #1#)") == parse_algebra("(union Sta Sta)")


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
    "(project (" + "1" * 19 + ") Sta)",  # more than 18 digits
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
    "(union #1# Sta)",  # a label used before its definition
    "#1=(union #1# Sta)",  # a label used inside its own definition
    "(union #1=(project (1) Sta) #1=(project (1) Sta))",  # a label defined twice
]


@pytest.mark.parametrize("text", MALFORMED_ALGEBRA, ids=[t[:24] for t in MALFORMED_ALGEBRA])
def test_malformed_algebra_is_a_syntax_error(text):
    with pytest.raises(QuerySyntaxError):
        parse_algebra(text)


def test_plan_depth_limit():
    # README's 512 levels: 511 projections, whose innermost index list is the last level
    text = "(project (1) " * 511 + "Sta" + ")" * 511
    assert degree_of(parse_algebra(text), {STA: 2}) == 1
    with pytest.raises(QuerySyntaxError, match="more than 512 levels"):
        parse_algebra("(project (1) " + text + ")")


def _text_depth(text: str) -> int:
    depth = deepest = 0
    for char in text:
        depth += {"(": 1, ")": -1}.get(char, 0)
        deepest = max(deepest, depth)
    return deepest


def test_deepest_translated_plan_round_trips(example_model):
    # the deepest plan within the query limit, at 387 levels
    query = parse_query("[COMP] " * 64 + "@code = 'b'")
    plan = translate_query(query, example_model)
    text = render_algebra(plan)
    assert _text_depth(text) == 387
    assert parse_algebra(text) == plan
    assert hash(parse_algebra(text)) == hash(plan)
    assert repr(plan) == f"parse_algebra({text!r})"
    assert copy.deepcopy(plan) == plan
    assert pickle.loads(pickle.dumps(plan)) == plan


def _evaluate_each_edge_once(plan, db, monkeypatch):
    """``evaluate(plan, db)``, failing as soon as ``_eval`` is entered more
    often than ``plan`` has edges, plus one for the plan itself: a node that
    is computed once is entered at most once from each edge into it, and an
    evaluator that computes a shared node again for each parent turns a
    nested plan into a tree that could run for hours."""
    seen, edges, pending = set(), 1, [plan]
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            children = relalg._children(node)
            edges += len(children)
            pending.extend(children)
    entered = 0
    inner_eval = relalg._eval

    def spy(expr, *rest):
        nonlocal entered
        entered += 1
        assert entered <= edges, f"a plan of {edges} edges entered _eval {entered} times"
        return inner_eval(expr, *rest)

    monkeypatch.setattr(relalg, "_eval", spy)
    return evaluate(plan, db)


# Nested guarded boxes at the query limit: each reads its body's plan twice,
# so as a tree the first plan would have about 2**32 nodes.
GUARDED_CHAINS = [
    "[COMP] (?x = @code & " * 32 + "?x = @code" + ")" * 32,
    "[COMP] <COMP> (?x = @code & " * 21 + "?x = @code" + ")" * 21,
]


@pytest.mark.parametrize("text", GUARDED_CHAINS, ids=["box-and", "box-diamond-and"])
def test_deep_guarded_chain_plan_is_a_dag(text, example_model, example_db, monkeypatch):
    start = time.perf_counter()
    query = parse_query(text, ["?x"])
    assert formula_depth(query.formula) <= MAX_NESTING
    plan = translate_query(query, example_model)
    rendered = render_algebra(plan)
    # the MAX_PLAN_DEPTH comment: shallower text than 64 dual boxes write
    assert _text_depth(rendered) < 387
    again = parse_algebra(rendered)
    assert again == plan and hash(again) == hash(plan)
    assert render_algebra(again) == rendered
    assert pickle.loads(pickle.dumps(plan)) == plan
    assert copy.deepcopy(plan) == plan
    answer = _evaluate_each_edge_once(plan, example_db, monkeypatch)
    assert answer == answer_direct(example_model, query)
    assert time.perf_counter() - start < 5.0


def test_guarded_chain_computes_each_node_once(example_model, example_db, monkeypatch):
    # twelve nested guarded boxes, each reading its body twice: 4,096 reads
    # of the innermost body as a tree, one as a plan
    query = parse_query("[COMP] (?x = @code & " * 12 + "?x = @code" + ")" * 12, ["?x"])
    plan = translate_query(query, example_model)
    divided = []
    divide = relalg._divide

    def spy(*args):
        rows = divide(*args)
        divided.append(rows is not None)
        return rows

    monkeypatch.setattr(relalg, "_divide", spy)
    answer = _evaluate_each_edge_once(plan, example_db, monkeypatch)
    assert answer == answer_direct(example_model, query)
    # each box's ``C − π(W − G)`` runs as a division
    assert divided.count(True) == 12


def test_campaign_plans_round_trip():
    for i in range(200):
        local = case_params(CAMPAIGN_PARAMS, i)
        model = gen_model(local)
        plan = translate_query(gen_query(local, model), model)
        assert parse_algebra(render_algebra(plan)) == plan


ALGEBRA_TOKENS = [
    "(", ")", "'", "''", "'a'", "select", "project", *BINARY_OPERATORS,
    "=", "!=", "0", "1", "2", STA, REL, CON, OBJ, "#1=", "#1#", "#2=", "#2#",
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

    def spy(expr, *rest):
        entered.append(render_algebra(expr))
        return inner_eval(expr, *rest)

    monkeypatch.setattr(relalg, "_eval", spy)
    assert evaluate(plan, example_db).tuples == {("1",)}
    # the whole plan, then the inner join's projection and Obj; the joins read
    # Sta and Rel through their tables
    assert len(entered) == 3
    assert not [text for text in entered if text.startswith(("(project (1 3) ", "(select (!= 2 1) "))]


# ---------------------------------------------------------------------------
# Streamed rows and compiled kernels

# One column each, and each repeats a value on most databases: a projection of
# a base relation, of a product and of a join.
_DUPLICATING = [
    Projection((2,), STA_REL),
    Projection((3,), REL_REL),
    Projection((1,), Product(OBJ_REL, CON_REL)),
    Projection((3,), Selection(eq(Column(1), Column(3)),
                               Product(STA_REL, Projection((1,), REL_REL)))),
    Projection((2,), Selection(SelectionPredicate(Column(1), "!=", Column(2)),
                               Product(CON_REL, OBJ_REL))),
]


@st.composite
def _set_plans(draw):
    """Unions, differences and intersections, to depth 3, of projections that
    repeat rows; a node drawn again from the pool is shared by its parents."""
    pool = list(_DUPLICATING)

    def plan(depth):
        if not depth or draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(pool))
        kind = draw(st.sampled_from([Union, Difference, Intersection, Product, Selection]))
        if kind is Product:  # a join projected back to one column
            node = Projection((draw(st.integers(1, 2)),), Product(plan(depth - 1), plan(depth - 1)))
        elif kind is Selection:
            predicate = SelectionPredicate(
                Column(1), draw(st.sampled_from(["=", "!="])), Constant(draw(_values))
            )
            node = Selection(predicate, plan(depth - 1))
        else:
            node = kind(plan(depth - 1), plan(depth - 1))
        pool.append(node)
        return node

    return plan(3)


_SHARED_LEAF = Projection((2,), STA_REL)
_SHARED_DIFF = Difference(_SHARED_LEAF, Projection((3,), REL_REL))


@given(_databases, _set_plans())
@example(_REPEATS, Difference(Union(_SHARED_LEAF, OBJ_REL), Intersection(_SHARED_LEAF, CON_REL)))
@example(_REPEATS, Intersection(_SHARED_DIFF, Union(_SHARED_DIFF, Projection((1,), STA_REL))))
@example(_REPEATS, Projection((1,), Product(_SHARED_DIFF, Difference(OBJ_REL, _SHARED_DIFF))))
@settings(max_examples=300)
def test_set_operators_over_repeating_streams_match_the_reference(db, expr):
    # an unshared input streams and may repeat a row; the answer is a set
    got = evaluate(expr, db)
    assert got.degree == 1
    assert got.tuples == _reference(expr, db)


def _guarded_box(n):
    """The plan of ``[R] <R> @c = ?x`` on the benchmark's sparse model of n
    states (seed 42), its database, and the difference of the edges W out of
    each candidate (``(project (1 2 4) (select (= 2 3) (product …)))``) and
    the edges into the body's rows."""
    model = load_perfbench("workloads").sparse_model(n, random.Random(42))
    plan = translate_query(parse_query("[R] <R> @c = ?x", ["?x"]), model)
    pending, found = [plan], []
    while pending:
        node = pending.pop()
        if isinstance(node, Difference) and render_algebra(node.left).startswith(
            "(project (1 2 4) (select (= 2 3) (product "
        ):
            found.append(node)
        pending.extend(relalg._children(node))
    assert len(found) == 1
    return plan, build_database(model), found[0]


def test_guarded_box_builds_no_set_of_its_edges(monkeypatch):
    plan, db, diff = _guarded_box(100)
    edges = evaluate(diff.left, db).tuples
    failing = evaluate(diff, db).tuples
    assert len(edges) > len(failing) > 0
    answer = evaluate(plan, db)
    built = []

    def counting(kind):
        def build(rows=()):
            rows = kind(rows)
            built.append(len(rows))
            return rows

        return build

    monkeypatch.setattr(relalg, "frozenset", counting(frozenset), raising=False)
    monkeypatch.setattr(relalg, "set", counting(set), raising=False)
    assert evaluate(plan, db) == answer
    # the candidates, the edges into the body and the failing candidates are
    # built; neither W nor the difference that streams it is
    assert built and max(built) < len(failing)


@pytest.mark.parametrize("first, second", [
    ("(select (= 2 'a') Sta)", "(select (= 2 'b') Sta)"),
    ("(project (1 5) (select (!= 2 'a') (select (= 3 'R') (select (= 1 3) (product Sta Rel)))))",
     "(project (1 5) (select (!= 2 'b') (select (= 3 'S') (select (= 1 3) (product Sta Rel)))))"),
], ids=["scan", "join"])
def test_plans_that_differ_only_in_constants_share_their_kernels(first, second):
    relalg._kernel.cache_clear()
    evaluate(parse_algebra(first), _REPEATS)
    compiled = relalg._kernel.cache_info()
    assert compiled.misses > 0
    evaluate(parse_algebra(second), _REPEATS)
    again = relalg._kernel.cache_info()
    assert again.misses == compiled.misses
    assert again.hits == compiled.hits + compiled.misses


def test_a_constant_is_compared_as_data_and_never_written_into_a_kernel(monkeypatch):
    value = 'x\') or __import__("os").getpid() or (\''
    db = _db([("1", value), ("2", "a")], [("1", "2", value)])
    sources = []
    text_of = relalg._kernel_source

    def spy(*layout):
        sources.append(text_of(*layout))
        return sources[-1]

    monkeypatch.setattr(relalg, "_kernel_source", spy)
    relalg._kernel.cache_clear()
    is_value = eq(Column(2), Constant(value))
    not_value = SelectionPredicate(Column(2), "!=", Constant(value))
    assert evaluate(Selection(is_value, STA_REL), db).tuples == {("1", value)}
    assert evaluate(Selection(not_value, STA_REL), db).tuples == {("2", "a")}
    on_key = Selection(eq(Column(1), Column(3)), Product(STA_REL, REL_REL))
    joined = Projection((1, 3), Selection(eq(Column(5), Constant(value)), on_key))
    assert evaluate(joined, db).tuples == {("1", "1")}
    assert evaluate(Selection(eq(Constant(value), Constant(value)), OBJ_REL), db).degree == 1
    assert sources
    for source in sources:
        assert value not in source and "__import__" not in source
        assert "'" not in source and '"' not in source


def test_the_kernel_cache_keeps_a_fixed_number_of_kernels():
    relalg._kernel.cache_clear()
    assert relalg._kernel.cache_info().maxsize == relalg.KERNEL_CACHE_SIZE
    # a fresh image of _REPEATS, which keeps no table yet
    db = pickle.loads(pickle.dumps(_REPEATS))
    # a distinct join layout for each list of four columns of Sta × Rel
    layouts = list(itertools.product(range(1, 6), repeat=4))[: relalg.KERNEL_CACHE_SIZE + 20]
    for indices in layouts:
        plan = Projection(indices, Selection(eq(Column(1), Column(3)), Product(STA_REL, REL_REL)))
        rows = evaluate(plan, db).tuples
        assert rows == {tuple((t + u)[i - 1] for i in indices)
                        for t in db.relations[STA].tuples
                        for u in db.relations[REL].tuples if t[0] == u[0]}
        assert relalg._kernel.cache_info().currsize <= relalg.KERNEL_CACHE_SIZE
    info = relalg._kernel.cache_info()
    # and one builder, for Rel's table, which the image keeps after the first join
    assert info.misses == len(layouts) + 1 and info.currsize == relalg.KERNEL_CACHE_SIZE
    relalg._kernel.cache_clear()


def test_each_shared_node_is_computed_once(monkeypatch):
    # twelve unions, each of one shared node with itself: 4,096 reads of Sta
    # as a tree, one as a plan
    plan = Selection(eq(Column(2), Constant("a")), STA_REL)
    for _ in range(12):
        plan = Union(plan, plan)
    entered = []
    inner_eval = relalg._eval

    def spy(expr, *rest):
        entered.append(expr)
        return inner_eval(expr, *rest)

    monkeypatch.setattr(relalg, "_eval", spy)
    assert evaluate(plan, _REPEATS).tuples == {("1", "a"), ("2", "a")}
    assert entered.count(STA_REL) == 1


# ---------------------------------------------------------------------------
# A − π(J − X), with J a chain over A × B, runs as one division

# Each makes a fresh node of one or more columns: a base relation, a node
# that repeats a value when it streams, a join and an empty node.
_DIVIDENDS = [
    lambda: BaseRelation(STA),
    lambda: Projection((2,), BaseRelation(STA)),
    lambda: Projection((1, 3), BaseRelation(REL)),
    lambda: Selection(eq(Column(1), Column(2)), Product(OBJ_REL, CON_REL)),
    lambda: Difference(BaseRelation(OBJ), BaseRelation(OBJ)),
]
_DIVISION_KINDS = ["division", "reordered", "dropped", "equal", "shared difference",
                   "shared projection"]


@st.composite
def _division_plans(draw):
    """``A − π(p)(J − X)``, with ``J`` up to three selections (and maybe a
    projection) over ``A × B`` and ``p`` picking ``A``'s columns from ``J``'s
    rows, and whether it runs as a division; or a near miss, which does not:
    a ``p`` that reorders or drops a column of ``A``, a ``J`` over a node
    equal to ``A`` but not ``A`` itself, or a shared difference or projection."""
    make = draw(st.sampled_from(_DIVIDENDS))
    kept, partners = make(), draw(st.sampled_from(_SIDES + [_EMPTY]))
    degree = degree_of(kept, _SCHEMA)
    width = degree + degree_of(partners, _SCHEMA)
    operands = _operands(width)
    predicate = st.builds(SelectionPredicate, operands, st.sampled_from(["=", "!="]), operands)
    predicates = draw(st.lists(predicate, max_size=3))
    picks = None
    if draw(st.booleans()):  # a projection atop the selections keeps every column of A
        extra = draw(st.lists(st.integers(1, width), max_size=2))
        picks = tuple(draw(st.permutations([*range(1, degree + 1), *extra])))
    columns = picks or tuple(range(1, width + 1))
    kind = draw(st.sampled_from(_DIVISION_KINDS))

    def chain(left):
        joined = _select_all(predicates, Product(left, partners))
        return joined if picks is None else Projection(picks, joined)

    if draw(st.booleans()):
        operands = _operands(len(columns))
        x = Selection(
            SelectionPredicate(draw(operands), draw(st.sampled_from(["=", "!="])),
                               draw(operands)),
            chain(kept),
        )
    else:
        x = Difference(chain(kept), chain(kept))  # empty
    in_order = [columns.index(j) + 1 for j in range(1, degree + 1)]
    p = list(in_order)
    if kind == "reordered" and degree > 1:
        p[0], p[1] = p[1], p[0]
    elif kind == "dropped":
        others = [i for i, column in enumerate(columns, 1) if column != degree]
        if others:
            p[-1] = draw(st.sampled_from(others))
    # a single column cannot be reordered, nor dropped where J has no other
    divides = kind == "division" or (kind in ("reordered", "dropped") and p == in_order)
    difference = Difference(chain(make() if kind == "equal" else kept), x)
    projection = Projection(tuple(p), difference)
    plan = Difference(kept, projection)
    if kind == "shared difference":
        plan = Union(plan, Projection(tuple(p), difference))
    elif kind == "shared projection":
        plan = Union(plan, projection)
    return plan, divides


# Sta's rows (1 a), (2 a), (3 b) and the edges 1 → 2 → 3; X is empty.
_NO_X = "(diff (product Sta Rel) (product Sta Rel))"
_DIVISION_EXAMPLES = [
    # a test of A alone keeps the row that fails it: (3 b)
    "(diff #1=(project (1 2) Sta) (project (1 2) (diff "
    "(select (= 2 'a') (select (= 1 3) (product #1# Rel))) " + _NO_X + ")))",
    # a state with another of its code: (3 b) has none
    "(diff #1=(project (1 2) Sta) (project (1 2) (diff "
    "(select (!= 1 3) (select (= 2 4) (product #1# Sta))) "
    "(diff (product Sta Sta) (product Sta Sta)))))",
    # a test of two constants that fails: no row has a partner
    "(diff #1=(project (1 2) Sta) (project (1 2) (diff "
    "(select (= 'a' 'b') (select (= 1 3) (product #1# Rel))) " + _NO_X + ")))",
    # no partners, or X holds the one edge out of 2
    "(diff #1=(project (1 2) Sta) (project (1 2) (diff (product #1# (diff Obj Obj)) "
    "(diff (product #1# (diff Obj Obj)) (product #1# (diff Obj Obj))))))",
    "(diff #1=(project (1 2) Sta) (project (1 2) (diff (select (= 1 3) (product #1# Rel)) "
    "(select (= 3 '2') (select (= 1 3) (product #1# Rel))))))",
    # the chain's projection puts A's column after a partner's, and a test of
    # the partner alone fails for 'a'
    "(diff #1=(project (2) Sta) (project (2) (diff (project (3 1) "
    "(select (!= 3 'a') (select (= 1 2) (product #1# (project (2 2) Sta))))) "
    "(diff (product Obj Obj) (product Obj Obj)))))",
]
_NEAR_MISS_EXAMPLES = [
    # p reorders A's columns
    "(diff #1=(project (1 2) Sta) (project (2 1) (diff "
    "(select (= 1 3) (product #1# Rel)) " + _NO_X + ")))",
    # p drops A's second column for its first
    "(diff #1=(project (1 2) Sta) (project (1 1) (diff "
    "(select (= 1 3) (product #1# Rel)) " + _NO_X + ")))",
    # the product's left input equals A but is another node
    "(diff (project (1 2) Sta) (project (1 2) (diff "
    "(select (= 1 3) (product (project (1 2) Sta) Rel)) " + _NO_X + ")))",
    # the inner difference is shared
    "(union (diff #1=(project (1 2) Sta) (project (1 2) #2=(diff "
    "(select (= 1 3) (product #1# Rel)) " + _NO_X + "))) (project (1 2) #2#))",
]


@given(_databases, _division_plans())
@example(_REPEATS, (parse_algebra(_DIVISION_EXAMPLES[0]), True))
@example(_REPEATS, (parse_algebra(_DIVISION_EXAMPLES[1]), True))
@example(_REPEATS, (parse_algebra(_DIVISION_EXAMPLES[2]), True))
@example(_REPEATS, (parse_algebra(_DIVISION_EXAMPLES[3]), True))
@example(_REPEATS, (parse_algebra(_DIVISION_EXAMPLES[4]), True))
@example(_REPEATS, (parse_algebra(_DIVISION_EXAMPLES[5]), True))
@example(_REPEATS, (parse_algebra(_NEAR_MISS_EXAMPLES[0]), False))
@example(_REPEATS, (parse_algebra(_NEAR_MISS_EXAMPLES[1]), False))
@example(_REPEATS, (parse_algebra(_NEAR_MISS_EXAMPLES[2]), False))
@example(_REPEATS, (parse_algebra(_NEAR_MISS_EXAMPLES[3]), False))
@settings(max_examples=300)
def test_a_difference_of_failing_partners_runs_as_a_division(db, case):
    plan, divides = case
    divided = []
    divide = relalg._divide

    def spy(*args):
        rows = divide(*args)
        divided.append(rows is not None)
        return rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relalg, "_divide", spy)
        got = evaluate(plan, db)
    assert got.tuples == _reference(plan, db)
    assert divided.count(True) == divides


def test_division_examples_answer_what_they_say():
    answers = [evaluate(parse_algebra(text), _REPEATS).tuples for text in _DIVISION_EXAMPLES]
    assert answers == [
        {("3", "b")},
        {("3", "b")},
        {("1", "a"), ("2", "a"), ("3", "b")},
        {("1", "a"), ("2", "a"), ("3", "b")},
        {("2", "a"), ("3", "b")},
        {("a",)},
    ]


def test_guarded_box_runs_as_one_division(monkeypatch):
    plan, db, _ = _guarded_box(100)
    model = load_perfbench("workloads").sparse_model(100, random.Random(42))
    layouts = []
    kernel = relalg._kernel

    def spy(*layout):
        layouts.append(layout)
        return kernel(*layout)

    monkeypatch.setattr(relalg, "_kernel", spy)
    answer = evaluate(plan, db)
    assert answer == answer_direct(model, parse_query("[R] <R> @c = ?x", ["?x"]))
    # W, the join of each candidate with its successors, is never requested;
    # the division that probes the successors instead is, with no tests of its own
    assert (2, (1,), (), (0, 1, 3)) not in layouts
    assert [layout for layout in layouts if len(layout) == 5] == [
        (2, (1,), (), (0, 1, 3), ())
    ]


# ---------------------------------------------------------------------------
# Tables kept by an image across evaluations

# Left sides of one to three columns, each over the values of _values.
_PROBES = [STA_REL, REL_REL, Projection((2,), STA_REL), Projection((3, 1), REL_REL)]


@st.composite
def _stored_leaves(draw):
    """Sta or Rel under up to two ``column = constant`` selections, and its degree."""
    name, degree = draw(st.sampled_from([(STA, 2), (REL, 3)]))
    leaf = BaseRelation(name)
    for _ in range(draw(st.integers(0, 2))):
        leaf = Selection(eq(Column(draw(st.integers(1, degree))), Constant(draw(_values))), leaf)
    return leaf, degree


@st.composite
def _keyed_plans(draw, leaves):
    """A join of a left side with one of ``leaves`` on one or two ``=``
    between a left and a right column, under up to two tests of a right
    column against a constant (``=`` or ``!=``) and maybe a projection; or a
    division whose partners are such a leaf."""
    left = draw(st.sampled_from(_PROBES))
    split = degree_of(left, _SCHEMA)
    right, degree = draw(st.sampled_from(leaves))
    predicates = []
    for _ in range(draw(st.integers(1, 2))):
        pair = [Column(draw(st.integers(1, split))), Column(draw(st.integers(split + 1, split + degree)))]
        predicates.append(eq(*draw(st.permutations(pair))))
    for _ in range(draw(st.integers(0, 2))):
        column = Column(draw(st.integers(split + 1, split + degree)))
        op = draw(st.sampled_from(["=", "=", "=", "!="]))
        predicates.append(SelectionPredicate(column, op, Constant(draw(_values))))
    joined = _select_all(predicates, Product(left, right))
    if draw(st.booleans()):  # A − π(1..split)(J − X), which runs as a division
        dropped = Selection(eq(Column(1), Constant(draw(_values))), Product(left, right))
        picks = tuple(range(1, split + 1))
        return Difference(left, Projection(picks, Difference(joined, dropped)))
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(1, split + degree), max_size=3))
        return Projection(tuple(picks), joined)
    return joined


@given(_databases, st.data())
@settings(max_examples=200)
def test_an_image_answers_each_plan_as_a_fresh_image_does(db, data):
    # one image answers plans over one or two leaves in order, reading the
    # tables that earlier plans left in it; each answer is the reference's,
    # and a fresh image's
    leaves = data.draw(st.lists(_stored_leaves(), min_size=1, max_size=2))
    plans = data.draw(st.lists(_keyed_plans(leaves), min_size=2, max_size=6))
    for plan in plans:
        got = evaluate(plan, db).tuples
        assert got == _reference(plan, db)
        assert got == evaluate(plan, pickle.loads(pickle.dumps(db))).tuples


def test_an_image_keeps_a_table_for_each_leaf_constants_and_key():
    db = pickle.loads(pickle.dumps(_REPEATS))  # a fresh image
    on_source = "(select (= 1 2) (product (project (1) Sta) (select (= 3 'R') Rel)))"
    assert evaluate(parse_algebra(on_source), db).tuples == {("1", "1", "2", "R"),
                                                             ("2", "2", "3", "R")}
    # the same leaf, keyed on the target, and then with the test from the chain
    on_target = "(select (= 1 3) (product (project (1) Sta) (select (= 3 'R') Rel)))"
    from_chain = "(select (= 4 'R') (select (= 3 1) (product (project (1) Sta) Rel)))"
    assert evaluate(parse_algebra(on_target), db).tuples == {("2", "1", "2", "R"),
                                                             ("3", "2", "3", "R")}
    assert evaluate(parse_algebra(from_chain), db) == evaluate(parse_algebra(on_target), db)
    # no row of Rel has the name S, so its table is empty and not kept
    no_rows = "(select (= 1 2) (product (project (1) Sta) (select (= 3 'S') Rel)))"
    assert evaluate(parse_algebra(no_rows), db).tuples == set()
    assert sorted(db._tables) == [(REL, ((2, "R"),), (0,)), (REL, ((2, "R"),), (1,))]
    assert db._tables[(REL, ((2, "R"),), (1,))] == {"2": [("1", "2", "R")], "3": [("2", "3", "R")]}


def test_an_image_is_read_only_and_pickles_without_its_tables():
    db = pickle.loads(pickle.dumps(_REPEATS))
    with pytest.raises(TypeError):
        db.relations[STA] = db.relations[OBJ]
    with pytest.raises(TypeError):
        del db.relations[REL]
    evaluate(parse_algebra("(select (= 1 3) (product (project (1) Sta) Rel))"), db)
    assert db._tables
    for other in (pickle.loads(pickle.dumps(db)), db.replace()):
        assert other == db and other._tables == {}
    assert "_tables" not in repr(db)
