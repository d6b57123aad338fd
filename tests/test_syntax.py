from __future__ import annotations

import copy
import itertools
import pickle
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FreeVarMismatch,
    Implies,
    KindError,
    ModalQuery,
    Neq,
    Not,
    ObjectConst,
    ObjectVar,
    Or,
    QuerySyntaxError,
    Relativized,
    build_database,
    free_vars,
    parse_formula,
    parse_query,
    render_formula,
)
from modalrel.harness import GenParams, case_params, gen_model, gen_query
from modalrel.relalg import (
    BaseRelation,
    Column,
    Constant,
    Difference,
    Intersection,
    Product,
    SelectionPredicate,
    Union,
    _Node,
    parse_algebra,
    render_algebra,
)
from modalrel.syntax import (
    MAX_NESTING,
    Formula,
    _Value,
    formula_depth,
    parse_variable,
    subformulas,
)

# ---------------------------------------------------------------------------
# Parsing against a hand-built AST table

CODE = Relativized(ConceptConst("code"))
ID = Relativized(ConceptConst("id"))
B = ObjectConst("b")
X = ObjectVar("x")
Y = ObjectVar("y")
A_VAR = ObjectVar("a")
G = ConceptVar("g")

PARSE_TABLE = [
    ("@code = 'b'", Eq(CODE, B)),
    ("?x = ?x", Eq(X, X)),
    ("'a' != 'b'", Neq(ObjectConst("a"), B)),
    ("@id = '3'", Eq(ID, ObjectConst("3"))),
    ("@%g = 'b'", Eq(Relativized(G), B)),
    ("!@code = 'b'", Not(Eq(CODE, B))),
    ("!(@code = 'b')", Not(Eq(CODE, B))),
    ("<COMP> @code = 'b'", Diamond("COMP", Eq(CODE, B))),
    ("[COMP] @code = 'b'", Box("COMP", Eq(CODE, B))),
    ("@code = 'b' & @id = '3'", And(Eq(CODE, B), Eq(ID, ObjectConst("3")))),
    ("@code = 'b' | @id = '3'", Or(Eq(CODE, B), Eq(ID, ObjectConst("3")))),
    ("@code = 'b' -> @id = '3'", Implies(Eq(CODE, B), Eq(ID, ObjectConst("3")))),
    # precedence: ! and modal operators bind tightest, then &, |, ->
    ("!?x = 'b' & ?x = 'c'", And(Not(Eq(X, B)), Eq(X, ObjectConst("c")))),
    (
        "?x = '1' | ?x = '2' & ?x = '3'",
        Or(Eq(X, ObjectConst("1")), And(Eq(X, ObjectConst("2")), Eq(X, ObjectConst("3")))),
    ),
    (
        "?x = '1' -> ?x = '2' -> ?x = '3'",
        Implies(Eq(X, ObjectConst("1")), Implies(Eq(X, ObjectConst("2")), Eq(X, ObjectConst("3")))),
    ),
    ("<COMP> @code = 'b' & ?x = 'c'", And(Diamond("COMP", Eq(CODE, B)), Eq(X, ObjectConst("c")))),
    # quantifier bodies extend maximally to the right
    (
        "exists ?x . ?x = 'a' & ?x = 'b'",
        Exists(X, And(Eq(X, ObjectConst("a")), Eq(X, B))),
    ),
    ("forall %g . @%g = 'b'", Forall(G, Eq(Relativized(G), B))),
    (
        "(exists ?x . ?x = 'a') & @code = 'b'",
        And(Exists(X, Eq(X, ObjectConst("a"))), Eq(CODE, B)),
    ),
    (
        "<lam ?y . <COMP> @code = ?y>(@code)",
        Abstraction(Y, Diamond("COMP", Eq(CODE, Y)), CODE),
    ),
    ("<lam ?y . ?y = 'b'>('b')", Abstraction(Y, Eq(Y, B), B)),
    ("<lam %g . @%g = 'b'>(code)", Abstraction(G, Eq(Relativized(G), B), ConceptConst("code"))),
    ("<COMP> <COMP> @code = 'b'", Diamond("COMP", Diamond("COMP", Eq(CODE, B)))),
]


@pytest.mark.parametrize("text,expected", PARSE_TABLE, ids=[t for t, _ in PARSE_TABLE])
def test_parse_table(text, expected):
    assert parse_formula(text) == expected


KIND_ERRORS = [
    "code = 'b'",          # bare concept constant is not an object term
    "'b' = code",
    "%g = 'b'",            # concept variable is not an object term
    "code = code",
    "<lam ?y . ?y = 'b'>(code)",   # object binder, concept argument
    "<lam %g . @%g = 'b'>('b')",   # concept binder, object argument
]


@pytest.mark.parametrize("text", KIND_ERRORS)
def test_kind_errors(text):
    with pytest.raises(KindError):
        parse_formula(text)


SYNTAX_ERRORS = [
    "",
    "@'b' = 'c'",
    "@?x = 'b'",
    "?x =",
    "?x ? 'b'",
    "(?x = 'b'",
    "exists x . ?x = 'b'",
    "exists ?x ?x = 'b'",
    "<COMP @code = 'b'",
    "[COMP> @code = 'b'",
    "<lam ?x . ?x = 'b'>",
    "?x = 'b' extra",
    "'unterminated = 'b'",
    "exists = 'b'",
]


@pytest.mark.parametrize("text", SYNTAX_ERRORS)
def test_syntax_errors(text):
    with pytest.raises(QuerySyntaxError):
        parse_formula(text)


def test_syntax_error_reports_position():
    with pytest.raises(QuerySyntaxError) as exc_info:
        parse_formula("?x = $")
    assert exc_info.value.line == 1
    assert exc_info.value.column == 6
    # a column counts from the start of its own line
    with pytest.raises(QuerySyntaxError, match=r"^3:4: unexpected character '\$'"):
        parse_formula("?x = 'b'\n  &\n  @$")


def test_kind_error_reports_position():
    err = pytest.raises(KindError, parse_formula, "?x = %g").value
    assert (err.line, err.column) == (1, 6)


LONG = 5000
LONG_TOKENS = {
    "column-index": (parse_algebra, "(project (" + "9" * LONG + ") Sta)", "bad column index '999"),
    "operator": (parse_algebra, "(" + "x" * LONG + " Sta)", "unknown algebra operator 'xxx"),
    "relation": (parse_algebra, "'" + "a" * LONG + "'", "expected a relation name, got \"'aaa"),
    "trailing": (parse_formula, "@code = 'b' " + "a" * LONG, "1:13: expected end of query"),
    "variable": (parse_variable, "x" * LONG, "not a variable name: 'xxx"),
}


@pytest.mark.parametrize("parse, text, start", LONG_TOKENS.values(), ids=LONG_TOKENS)
def test_syntax_error_shortens_a_long_token(parse, text, start):
    # the message is one stderr line on the command line; it names the token, shortened
    message = str(pytest.raises(QuerySyntaxError, parse, text).value)
    assert message.startswith(start)
    assert "..." in message and len(message) < 100


NAME = "n" * LONG
LONG_TERMS = {
    "relativized": (lambda: Relativized(ObjectConst(NAME)), "'@' applies only to concept terms"),
    "comparison": (lambda: Neq(B, ConceptConst(NAME)), "inequality compares object terms"),
    "quantifier": (lambda: Forall(ObjectConst(NAME), Eq(B, B)), "quantifier binds a variable"),
    "binder": (lambda: Abstraction(ObjectConst(NAME), Eq(B, B), B), "abstraction binds a variable"),
    "argument": (lambda: Abstraction(X, Eq(X, B), ConceptConst(NAME)), "abstraction binder '?x'"),
}


@pytest.mark.parametrize("build, start", LONG_TERMS.values(), ids=LONG_TERMS)
def test_kind_error_shortens_a_long_term(build, start):
    # each constructor's kind rule names the term it refuses, shortened
    message = str(pytest.raises(KindError, build).value)
    assert message.startswith(start)
    assert "..." in message and len(message) < 100


# ---------------------------------------------------------------------------
# Nesting limit

ATOM = "'a' = 'a'"

# (text before the atom, text after it) for one level of each nesting construct
NESTING_LEVELS = {
    "negation": ("!", ""),
    "diamond": ("<R> ", ""),
    "box": ("[R] ", ""),
    "exists": ("exists ?x . ", ""),
    "forall": ("forall %g . ", ""),
    "lambda": ("<lam ?x . ", ">('a')"),
    "implication": (f"{ATOM} -> ", ""),
    "conjunction": ("", f" & {ATOM}"),
    "disjunction": ("", f" | {ATOM}"),
}


def _nested(before, after, levels):
    return before * levels + ATOM + after * levels


@pytest.mark.parametrize("before,after", NESTING_LEVELS.values(), ids=NESTING_LEVELS.keys())
def test_nesting_limit(before, after):
    assert formula_depth(parse_formula(_nested(before, after, MAX_NESTING))) == MAX_NESTING
    with pytest.raises(QuerySyntaxError, match=f"more than {MAX_NESTING} operator levels"):
        parse_formula(_nested(before, after, MAX_NESTING + 1))


def test_parenthesis_nesting_limit():
    # each group also opens a λ body: the parser's deepest recursion per level
    group = ("(<lam ?x . ", ">('a'))")
    assert parse_formula(_nested(*group, MAX_NESTING)) == parse_formula(
        _nested("<lam ?x . ", ">('a')", MAX_NESTING)
    )
    with pytest.raises(QuerySyntaxError, match=f"more than {MAX_NESTING} parenthesis levels"):
        parse_formula(_nested("(", ")", MAX_NESTING + 1))


def test_formula_at_the_limit_round_trips():
    # every constructor in turn, so the rendered text also carries parentheses
    atom = Eq(B, B)
    wrappers = [
        Not,
        lambda f: And(f, atom),
        lambda f: Exists(X, f),
        lambda f: Or(atom, f),
        lambda f: Box("R", f),
        lambda f: Implies(f, atom),
        lambda f: Forall(X, f),
        lambda f: Abstraction(X, f, B),
        lambda f: Diamond("R", f),
    ]
    formula = atom
    for level in range(MAX_NESTING):
        formula = wrappers[level % len(wrappers)](formula)
    assert formula_depth(formula) == MAX_NESTING
    assert parse_formula(render_formula(formula)) == formula
    with pytest.raises(QuerySyntaxError):
        parse_formula(render_formula(Not(formula)))


@pytest.mark.parametrize(
    "wrap, levels",
    [(Not, 3000), (lambda f: Box("COMP", f), 150)],
    ids=["not-3000", "box-150"],
)
def test_query_built_in_python_obeys_the_nesting_limit(wrap, levels):
    formula = Eq(X, B)
    for _ in range(levels):
        formula = wrap(formula)
    with pytest.raises(QuerySyntaxError, match=f"^query nests more than {MAX_NESTING} operator"):
        ModalQuery(formula, (X,))


@pytest.mark.parametrize("walk", [free_vars, render_formula], ids=lambda f: f.__name__)
def test_formula_walks_refuse_past_the_nesting_limit(walk):
    # they recurse once per level, so a deep formula is refused before the walk
    formula = Eq(X, B)
    for _ in range(3000):
        formula = Not(formula)
    with pytest.raises(QuerySyntaxError, match=f"^query nests more than {MAX_NESTING} operator"):
        walk(formula)


def test_every_value_compares_hashes_and_copies_at_any_depth():
    def chain(atom):
        formula = atom
        for level in range(3000):
            formula = (Not, lambda f: And(f, atom), lambda f: Exists(X, f))[level % 3](formula)
        return formula

    deep = chain(Eq(X, B))
    assert deep == chain(Eq(X, B)) and hash(deep) == hash(chain(Eq(X, B)))
    assert deep != chain(Eq(X, ObjectConst("c")))
    assert deep != chain(Neq(X, B))
    assert copy.copy(deep) is deep and copy.deepcopy(deep) is deep


def test_repr_shows_a_formula_of_any_depth():
    deep = Eq(X, B)
    for _ in range(3000):
        deep = Not(deep)
    assert repr(deep) == "Not(body=" * 3000 + XB + ")" * 3000


def _recursive_repr(value):
    """``Name(field=value, ...)`` by plain recursion over the fields; a plan
    node, or anything that is not a value, shows its own repr."""
    if not isinstance(value, _Value) or isinstance(value, _Node):
        return repr(value)
    fields = value.__match_args__
    shown = ", ".join(f"{name}={_recursive_repr(getattr(value, name))}" for name in fields)
    return f"{type(value).__qualname__}({shown})"


def test_repr_is_the_recursive_text_on_generated_values():
    predicate = SelectionPredicate(Column(1), "!=", Constant("b"))
    assert repr(predicate) == _recursive_repr(predicate)
    params = GenParams(seed=42, allow_concept_vars=True)
    for index in range(100):
        local = case_params(params, index)
        model = gen_model(local)
        query = gen_query(local, model)
        for value in (query, query.formula, model, build_database(model)):
            assert repr(value) == _recursive_repr(value)


def test_subformulas_lists_every_formula_field():
    # one instance of every constructor, each formula-valued field a distinct atom
    atoms = (Eq(ObjectConst(str(i)), B) for i in range(100))
    for constructor in typing.get_args(Formula):
        hints = typing.get_type_hints(constructor.__init__)
        fields = constructor.__match_args__
        instance = constructor(*(
            next(atoms) if hints[f] == Formula else "R" if hints[f] is str else X
            for f in fields
        ))
        held = tuple(getattr(instance, f) for f in fields if hints[f] == Formula)
        assert subformulas(instance) == held, constructor.__name__


# Constructors that share one base: (classes, field values, the
# fields' repr text, or None for a plan node, whose repr is its algebra text)
XB = "Eq(left=ObjectVar(name='x'), right=ObjectConst(symbol='b'))"
ONE_SHAPE = [
    ((ObjectConst, ConceptConst), ("b",), "symbol='b'"),
    ((ObjectVar, ConceptVar), ("x",), "name='x'"),
    ((Eq, Neq), (X, B), "left=ObjectVar(name='x'), right=ObjectConst(symbol='b')"),
    ((And, Or, Implies), (Eq(X, B), Eq(X, B)), f"left={XB}, right={XB}"),
    ((Diamond, Box), ("R", Eq(X, B)), f"relation='R', body={XB}"),
    ((Exists, Forall), (X, Eq(X, B)), f"var=ObjectVar(name='x'), body={XB}"),
    ((Product, Union, Difference, Intersection), (BaseRelation("Sta"), BaseRelation("Obj")), None),
]
SAME_SHAPE_PAIRS = [
    (first, second, values, text)
    for classes, values, text in ONE_SHAPE
    for first, second in itertools.combinations(classes, 2)
]


@pytest.mark.parametrize(
    "first, second, values, text",
    SAME_SHAPE_PAIRS,
    ids=[f"{first.__name__}-{second.__name__}" for first, second, _, _ in SAME_SHAPE_PAIRS],
)
def test_constructors_of_one_shape_stay_distinct_values(first, second, values, text):
    one, other = first(*values), second(*values)
    assert one != other and not one == other
    assert one == first(*values) and hash(one) == hash(first(*values))
    match other:
        case first():
            pytest.fail(f"a {first.__name__} pattern matched a {second.__name__}")
    for value in (one, other):
        if text is None:
            assert repr(value) == f"parse_algebra({render_algebra(value)!r})"
        else:
            assert repr(value) == f"{type(value).__name__}({text})"
        field = value.__match_args__[0]
        with pytest.raises(AttributeError, match=repr(field)):
            setattr(value, field, values[0])
        with pytest.raises(AttributeError, match=repr(field)):
            delattr(value, field)
        copies = (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), value.replace())
        for again in copies:
            assert type(again) is type(value) and again == value


# ---------------------------------------------------------------------------
# Variables: one object per kind and name


def test_a_variable_is_one_object_per_kind_and_name():
    assert ObjectVar("x") is ObjectVar("x") is X
    assert ConceptVar("g") is ConceptVar(name="g") is G
    assert ObjectVar("x") is not ConceptVar("x")
    assert ObjectVar("x") != ConceptVar("x") and not ObjectVar("x") == ConceptVar("x")
    assert hash(X) == object.__hash__(X)
    assert type(X).__eq__ is object.__eq__ and type(X).__hash__ is object.__hash__


@pytest.mark.parametrize("var", [X, G], ids=["object", "concept"])
def test_copies_of_a_variable_are_the_variable(var):
    assert pickle.loads(pickle.dumps(var)) is var
    assert copy.copy(var) is var
    assert copy.deepcopy(var) is var
    assert var.replace() is var
    assert var.replace(name="other") is type(var)("other")


def test_parser_reuses_the_target_variable():
    query = parse_query("?x = ?x", ["?x"])
    (target,) = query.target
    assert target is X
    assert query.formula.left is target and query.formula.right is target
    assert parse_formula("exists %g . @%g = ?x").var is G


def test_harness_binder_is_the_parsed_variable():
    for index in itertools.count():
        local = case_params(GenParams(seed=42), index)
        formula = gen_query(local, gen_model(local)).formula
        binders = [f.var for f in _walk(formula) if getattr(f, "var", None) == ObjectVar("q1")]
        if binders:
            break
    assert parse_variable("?q1") is binders[0]
    reparsed = parse_formula(render_formula(formula))
    assert any(getattr(f, "var", None) is binders[0] for f in _walk(reparsed))


def _walk(formula):
    pending = [formula]
    while pending:
        node = pending.pop()
        yield node
        pending += subformulas(node)


# ---------------------------------------------------------------------------
# Queries and free variables


def test_parse_query_checks_target():
    query = parse_query("?x = ?x", ["?x"])
    assert query.target == (X,)
    with pytest.raises(FreeVarMismatch):
        parse_query("?x = ?x", [])
    with pytest.raises(FreeVarMismatch):
        parse_query("@code = 'b'", ["?x"])
    with pytest.raises(FreeVarMismatch):
        parse_query("?x = ?y", ["?x", "?y", "?x"])


NOT_VARIABLE_NAMES = ["x", "?1x", "?x y", "%", "", "?x\n", "?", "??x", "?x ", "?x-y", "?é"]


@pytest.mark.parametrize("name", NOT_VARIABLE_NAMES)
def test_parse_query_rejects_target_that_is_not_a_variable_name(name):
    with pytest.raises(QuerySyntaxError, match="not a variable name"):
        parse_query("?x = ?x", [name])


@pytest.mark.parametrize("name, variable", [
    ("?x", ObjectVar("x")), ("%a_1", ConceptVar("a_1")), ("?_", ObjectVar("_")),
])
def test_parse_variable_accepts_one_variable_token(name, variable):
    assert parse_variable(name) is variable


def test_free_vars_order_and_binding():
    assert free_vars(Eq(X, CODE)) == [X]
    assert free_vars(Exists(X, Eq(X, Y))) == [Y]
    assert free_vars(parse_formula("?y = ?x & ?x = ?y")) == [Y, X]
    # abstraction binds its variable but its argument stays free
    lam = Abstraction(Y, Diamond("COMP", Eq(CODE, Y)), CODE)
    assert free_vars(lam) == []
    assert free_vars(Abstraction(Y, Eq(Y, B), X)) == [X]
    # object and concept variables with the same name are distinct
    assert free_vars(Eq(ObjectVar("g"), Relativized(ConceptVar("g")))) == [
        ObjectVar("g"),
        ConceptVar("g"),
    ]


def test_free_vars_stable_under_bound_renaming():
    before = parse_formula("exists ?y . ?y = ?x")
    after = parse_formula("exists ?z . ?z = ?x")
    assert free_vars(before) == free_vars(after) == [X]


def test_modal_query_rejects_bad_targets():
    with pytest.raises(FreeVarMismatch):
        ModalQuery(Eq(X, B), ())
    with pytest.raises(FreeVarMismatch):
        ModalQuery(Eq(B, B), (X,))


# ---------------------------------------------------------------------------
# Rendering


def test_render_canonical_forms():
    assert render_formula(Eq(CODE, B)) == "@code = 'b'"
    assert render_formula(Box("COMP", Eq(CODE, B))) == "[COMP] @code = 'b'"
    assert render_formula(Or(And(Eq(X, B), Eq(X, B)), Eq(X, B))) == (
        "?x = 'b' & ?x = 'b' | ?x = 'b'"
    )
    assert render_formula(And(Eq(X, B), Or(Eq(X, B), Eq(X, B)))) == (
        "?x = 'b' & (?x = 'b' | ?x = 'b')"
    )


# hypothesis strategies over well-formed ASTs

_names = st.sampled_from(["x", "y", "z", "v1", "v2"])
_obj_values = st.sampled_from(["a", "b", "c", "1", "2"])
_concept_names = st.sampled_from(["id", "code", "kind"])
_relations = st.sampled_from(["R", "COMP"])

_object_vars = st.builds(ObjectVar, _names)
_concept_vars = st.builds(ConceptVar, _names)
_variables = st.one_of(_object_vars, _concept_vars)
_concept_terms = st.one_of(st.builds(ConceptConst, _concept_names), _concept_vars)
_object_terms = st.one_of(
    st.builds(ObjectConst, _obj_values),
    _object_vars,
    st.builds(Relativized, _concept_terms),
)

_atoms = st.one_of(
    st.builds(Eq, _object_terms, _object_terms),
    st.builds(Neq, _object_terms, _object_terms),
)


def _lambda_strategy(formulas):
    def build(var, body, draw_obj, draw_con):
        argument = draw_obj if isinstance(var, ObjectVar) else draw_con
        return Abstraction(var, body, argument)

    return st.builds(build, _variables, formulas, _object_terms, _concept_terms)


_formulas = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Diamond, _relations, children),
        st.builds(Box, _relations, children),
        st.builds(Exists, _variables, children),
        st.builds(Forall, _variables, children),
        _lambda_strategy(children),
    ),
    max_leaves=25,
)


@given(_formulas)
@settings(max_examples=200)
def test_render_parse_round_trip(formula):
    assert parse_formula(render_formula(formula)) == formula


_soup_tokens = st.sampled_from(
    ["?x", "%g", "'b'", "@code", "code", "=", "!=", "!", "&", "|", "->", "(", ")",
     "<", ">", "[", "]", ".", "exists", "forall", "lam", "COMP", "@"]
)


@given(st.lists(_soup_tokens, min_size=1, max_size=12))
@settings(max_examples=300)
def test_parser_soup_never_breaks_kind_rules(tokens):
    """Whatever the parser accepts must satisfy the AST invariants."""
    text = " ".join(tokens)
    try:
        formula = parse_formula(text)
    except (QuerySyntaxError, KindError):
        return
    # reachable invariants are enforced by the constructors; accepting
    # implies the canonical form round-trips
    assert parse_formula(render_formula(formula)) == formula
