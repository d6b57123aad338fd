"""Modal query language: terms, formulas, parser, renderer, variable analysis.

The language keeps two kinds of symbols strictly apart.  Object-level terms
are quoted constants (``'b'``) and ``?x`` variables; concept-level terms are
bare-name constants (``code``) and ``%a`` variables.  ``@t`` denotes the
object a concept ``t`` takes in the state under evaluation and is the only
bridge between the kinds: it turns a concept term into an object term.
Equality and inequality compare object terms only.

Every term, formula and query is a ``_Value``: it compares and hashes by
structure at any depth, and a copy of it is the value itself.  A variable is
the exception: it is one object per kind and name, ``ObjectVar("x") is
ObjectVar("x")``, so ``==`` on variables is ``is`` and they hash on their
identity, and pickling, ``copy`` and ``replace`` give back that same object.

Constructors of one shape share one base whose ``__init__`` states their
fields and checks once; each stays its own type for ``==``, hashing and
``match``, so an ``Eq`` never equals or matches a ``Neq``.  The bases are plain
classes over ``_Value``, not dataclasses: a one-shot ``modalrel eval`` would
otherwise spend a fifth of its time generating their methods.

No formula deeper than ``MAX_NESTING`` becomes a query, whether it is parsed
from text or built in Python.
"""

from __future__ import annotations

import re
import reprlib
from contextlib import contextmanager
from typing import Iterator

from .errors import FreeVarMismatch, KindError, QuerySyntaxError

# Deepest formula tree (operators on the longest path down to an atom) that a
# query may hold, and deepest parenthesis nesting that query text may hold.
# Both engines recurse on the formula tree, the algebra translator about 8
# frames per ``[R]`` level, so a deeper query is refused before either engine
# sees it.
MAX_NESTING = 64

_set = object.__setattr__


def _shown(term) -> str:
    """A term's text for an error message, quoted and cut short if long."""
    return reprlib.repr(str(term))


class _Value:
    """An immutable value whose fields are the parameters of its ``__init__``.

    Each class that defines ``__init__`` names its fields there, once, and
    sets them with ``object.__setattr__`` after its checks.  Values are equal
    when their classes are the same and their fields are equal; equality and
    hashing read a flat listing (``_listing``) built without recursion, so a
    tree of any depth compares and hashes.  A copy of a value is the value
    itself; ``repr`` is ``Name(field=value, ...)``, also built without
    recursion, so it shows a tree of any depth; ``replace`` builds a
    changed copy through ``__init__``, as does unpickling, so both check it.
    A variable keeps ``object``'s equality and hashing (``_Var``).
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _listing(self) -> list:
        # In pre-order, each value's class, then its fields that are not values;
        # every class has a fixed list of fields, so the listing fixes the tree.
        listing = []
        pending = [self]
        while pending:
            value = pending.pop()
            listing.append(type(value))
            for name in value.__match_args__:
                field = getattr(value, name)
                if isinstance(field, _Value):
                    pending.append(field)
                else:
                    listing.append(field)
        return listing

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._listing() == other._listing()

    def __hash__(self):
        return hash(tuple(self._listing()))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        # Pending text is a str; a pending field is a value shown by this repr.
        text, pending = [], [self]
        while pending:
            value = pending.pop()
            if type(value) is str:
                text.append(value)
                continue
            pending.append(")")
            for i, name in reversed(list(enumerate(value.__match_args__))):
                field = getattr(value, name)
                pending.append(field if type(field).__repr__ is _Value.__repr__ else repr(field))
                pending.append(f"{', ' if i else ''}{name}=")
            pending.append(f"{type(value).__qualname__}(")
        return "".join(text)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, checked as a new value is."""
        fields = {name: getattr(self, name) for name in self.__match_args__}
        return type(self)(**{**fields, **changes})


# ---------------------------------------------------------------------------
# Terms


class _Const(_Value):
    def __init__(self, symbol: str):
        _set(self, "symbol", symbol)


class ObjectConst(_Const):
    def __str__(self) -> str:
        return f"'{self.symbol}'"


class ConceptConst(_Const):
    def __str__(self) -> str:
        return self.symbol


# Every variable ever built, keyed on (class, name).  ``setdefault`` keeps one
# object when two threads build the same variable at once.
_VARIABLES: dict = {}


class _Var(_Value):
    """A variable: the constructor returns one object per class and name, made
    on first use (hash-consing: Filliâtre & Conchon, ML Workshop 2006), so
    ``object``'s equality and hashing, which run in C on identity, are right.
    """

    __match_args__ = ("name",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, name: str):
        var = _VARIABLES.get((cls, name))
        if var is None:
            var = object.__new__(cls)
            _set(var, "name", name)
            var = _VARIABLES.setdefault((cls, name), var)
        return var


class ObjectVar(_Var):
    def __str__(self) -> str:
        return f"?{self.name}"


class ConceptVar(_Var):
    def __str__(self) -> str:
        return f"%{self.name}"


class Relativized(_Value):
    """The object a concept takes in the current state (an object term)."""

    def __init__(self, inner: Term):
        if not is_concept_term(inner):
            raise KindError(f"'@' applies only to concept terms, got {_shown(inner)}")
        _set(self, "inner", inner)

    def __str__(self) -> str:
        return f"@{self.inner}"


Term = ObjectConst | ConceptConst | ObjectVar | ConceptVar | Relativized
Var = ObjectVar | ConceptVar


def is_object_term(term: Term) -> bool:
    return isinstance(term, (ObjectConst, ObjectVar, Relativized))


def is_concept_term(term: Term) -> bool:
    return isinstance(term, (ConceptConst, ConceptVar))


def is_variable(term: Term) -> bool:
    return isinstance(term, _Var)


def same_kind(var: Var, term: Term) -> bool:
    """Whether a binder of `var`'s kind may take `term` as its argument."""
    if isinstance(var, ObjectVar):
        return is_object_term(term)
    return is_concept_term(term)


# ---------------------------------------------------------------------------
# Formulas


class _Comparison(_Value):
    def __init__(self, left: Term, right: Term):
        for side in (left, right):
            if not is_object_term(side):
                raise KindError(f"{self._compares} compares object terms, got {_shown(side)}")
        _set(self, "left", left)
        _set(self, "right", right)


class Eq(_Comparison):
    _compares = "equality"


class Neq(_Comparison):
    _compares = "inequality"


class Not(_Value):
    def __init__(self, body: Formula):
        _set(self, "body", body)


class _Connective(_Value):
    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class And(_Connective):
    pass


class Or(_Connective):
    pass


class Implies(_Connective):
    pass


class _Modal(_Value):
    def __init__(self, relation: str, body: Formula):
        _set(self, "relation", relation)
        _set(self, "body", body)


class Diamond(_Modal):
    pass


class Box(_Modal):
    pass


class _Quantifier(_Value):
    def __init__(self, var: Var, body: Formula):
        if not is_variable(var):
            raise KindError(f"quantifier binds a variable, got {_shown(var)}")
        _set(self, "var", var)
        _set(self, "body", body)


class Exists(_Quantifier):
    pass


class Forall(_Quantifier):
    pass


class Abstraction(_Value):
    """``<lam v . body>(argument)``: bind v to the argument's current value."""

    def __init__(self, var: Var, body: Formula, argument: Term):
        if not is_variable(var):
            raise KindError(f"abstraction binds a variable, got {_shown(var)}")
        if not same_kind(var, argument):
            raise KindError(
                f"abstraction binder {_shown(var)} and argument {_shown(argument)} differ in kind"
            )
        _set(self, "var", var)
        _set(self, "body", body)
        _set(self, "argument", argument)


Formula = Eq | Neq | Not | And | Or | Implies | Diamond | Box | Exists | Forall | Abstraction


# ---------------------------------------------------------------------------
# Variable analysis


def term_free_vars(term: Term) -> list[Var]:
    match term:
        case ObjectVar() | ConceptVar():
            return [term]
        case Relativized(inner):
            return term_free_vars(inner)
        case _:
            return []


def free_vars(formula: Formula) -> list[Var]:
    """Free variables of a formula, in first-occurrence order.

    A formula deeper than ``MAX_NESTING`` is refused when the walk reaches a
    node below that many operators, before it recurses further.
    """
    seen: dict[Var, None] = {}

    def collect(terms: list[Var], bound: frozenset[Var]) -> None:
        for var in terms:
            if var not in bound and var not in seen:
                seen[var] = None

    def walk(f: Formula, bound: frozenset[Var], level: int) -> None:
        if level > MAX_NESTING:
            _refuse_past_limit(level)
        match f:
            case _Comparison(left, right):
                collect(term_free_vars(left), bound)
                collect(term_free_vars(right), bound)
            case Not(body) | _Modal(_, body):
                walk(body, bound, level + 1)
            case _Connective(left, right):
                walk(left, bound, level + 1)
                walk(right, bound, level + 1)
            case _Quantifier(var, body):
                walk(body, bound | {var}, level + 1)
            case Abstraction(var, body, argument):
                walk(body, bound | {var}, level + 1)
                collect(term_free_vars(argument), bound)

    walk(formula, frozenset(), 0)
    return list(seen)


def subformulas(formula: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas, left to right; ``()`` for an atom."""
    match formula:
        case Not(body) | _Modal(_, body) | _Quantifier(_, body) | Abstraction(_, body, _):
            return (body,)
        case _Connective(left, right):
            return (left, right)
    return ()


def formula_depth(formula: Formula) -> int:
    """Operators on the longest path from the root down to an atom.

    An atom has depth 0.  The walk keeps its own stack, so any tree is safe.
    """
    deepest = 0
    pending = [(formula, 0)]
    while pending:
        node, depth = pending.pop()
        deepest = max(deepest, depth)
        pending += [(child, depth + 1) for child in subformulas(node)]
    return deepest


def _refuse_past_limit(depth: int, level: str = "operator", line=None, column=None) -> None:
    """Raise the one error for a query nested deeper than ``MAX_NESTING``."""
    if depth > MAX_NESTING:
        message = f"query nests more than {MAX_NESTING} {level} levels deep"
        raise QuerySyntaxError(message, line, column)


class ModalQuery(_Value):
    """A formula plus the ordered list of its free variables (the target)."""

    def __init__(self, formula: Formula, target: tuple[Var, ...]):
        if len(set(target)) != len(target):
            raise FreeVarMismatch("target variables must be distinct")
        free = free_vars(formula)
        if set(free) != set(target):
            wanted = ", ".join(str(v) for v in target) or "(none)"
            got = ", ".join(str(v) for v in free) or "(none)"
            raise FreeVarMismatch(f"target list [{wanted}] != free variables [{got}]")
        _set(self, "formula", formula)
        _set(self, "target", target)


# ---------------------------------------------------------------------------
# Parsing

_KEYWORDS = frozenset({"exists", "forall", "lam"})

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<OBJCONST>'[^']*')
    | (?P<ARROW>->)
    | (?P<NEQ>!=)
    | (?P<OVAR>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<CVAR>%[A-Za-z_][A-Za-z0-9_]*)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>[!&|=<>\[\]().@])
    """,
    re.VERBOSE,
)


class _Token(_Value):
    def __init__(self, kind: str, value: str, line: int, column: int):
        _set(self, "kind", kind)
        _set(self, "value", value)
        _set(self, "line", line)
        _set(self, "column", column)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        if kind != "WS":
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        line += value.count("\n")
        if "\n" in value:
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    """Recursive-descent parser for the query grammar.

    Precedence, loosest first: ``->`` (right-associative), ``|``, ``&``, then
    the prefix operators ``!``, ``<R>``, ``[R]``.  Quantifier and abstraction
    bodies extend maximally to the right.

    The parser recurses only into an operand it counts: the body of a prefix
    operator, quantifier or abstraction and the right side of ``->`` each add
    an operator level, a group adds a parenthesis level, and either count
    past ``MAX_NESTING`` is refused at once.  ``&`` and ``|`` chains are built
    left-deep in a loop; ``parse`` then measures the finished tree.
    """

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._levels = {"operator": 0, "parenthesis": 0}

    def _peek(self, ahead: int = 0) -> _Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _error(self, message: str, token: _Token | None = None) -> QuerySyntaxError:
        token = token or self._peek()
        shown = reprlib.repr(token.value or "end of input")
        return QuerySyntaxError(f"{message}, found {shown}", token.line, token.column)

    def _expect(self, value: str, what: str) -> _Token:
        token = self._peek()
        if token.value != value:
            raise self._error(f"expected {what}", token)
        return self._advance()

    def _expect_name(self, what: str) -> _Token:
        token = self._peek()
        if token.kind != "NAME" or token.value in _KEYWORDS:
            raise self._error(f"expected {what}", token)
        return self._advance()

    @contextmanager
    def _deeper(self, level: str) -> Iterator[None]:
        """One operator or parenthesis level deeper (a ``with`` adds no frame)."""
        token = self._peek()
        self._levels[level] += 1
        _refuse_past_limit(self._levels[level], level, token.line, token.column)
        yield
        self._levels[level] -= 1

    def parse(self) -> Formula:
        formula = self.formula()
        if self._peek().kind != "EOF":
            raise self._error("expected end of query")
        _refuse_past_limit(formula_depth(formula))
        return formula

    def formula(self) -> Formula:
        """An implication chain, the loosest-binding level."""
        left = self._disjunction()
        if self._peek().value == "->":
            self._advance()
            with self._deeper("operator"):
                return Implies(left, self.formula())
        return left

    def _disjunction(self) -> Formula:
        formula = self._conjunction()
        while self._peek().value == "|":
            self._advance()
            formula = Or(formula, self._conjunction())
        return formula

    def _conjunction(self) -> Formula:
        formula = self._unary()
        while self._peek().value == "&":
            self._advance()
            formula = And(formula, self._unary())
        return formula

    def _unary(self) -> Formula:
        token = self._peek()
        if token.value == "!":
            self._advance()
            with self._deeper("operator"):
                return Not(self._unary())
        if token.value == "<":
            if self._peek(1).value == "lam":
                return self._abstraction()
            self._advance()
            relation = self._expect_name("a relation name after '<'")
            self._expect(">", "'>' after relation name")
            with self._deeper("operator"):
                return Diamond(relation.value, self._unary())
        if token.value == "[":
            self._advance()
            relation = self._expect_name("a relation name after '['")
            self._expect("]", "']' after relation name")
            with self._deeper("operator"):
                return Box(relation.value, self._unary())
        if token.value in ("exists", "forall"):
            self._advance()
            var = self._variable()
            self._expect(".", "'.' after quantified variable")
            with self._deeper("operator"):
                body = self.formula()
            return Exists(var, body) if token.value == "exists" else Forall(var, body)
        return self._atom_or_group()

    def _abstraction(self) -> Formula:
        self._expect("<", "'<'")
        self._expect("lam", "'lam'")
        var = self._variable()
        self._expect(".", "'.' after abstraction variable")
        with self._deeper("operator"):
            body = self.formula()
        self._expect(">", "'>' closing the abstraction body")
        self._expect("(", "'(' before the abstraction argument")
        arg_token = self._peek()
        argument = self._term()
        self._expect(")", "')' after the abstraction argument")
        if not same_kind(var, argument):
            raise KindError(
                f"abstraction binder {_shown(var)} and argument {_shown(argument)} differ in kind",
                arg_token.line,
                arg_token.column,
            )
        return Abstraction(var, body, argument)

    def _atom_or_group(self) -> Formula:
        if self._peek().value == "(":
            self._advance()
            with self._deeper("parenthesis"):
                formula = self.formula()
            self._expect(")", "')'")
            return formula
        left_token = self._peek()
        left = self._term()
        op = self._peek()
        if op.value not in ("=", "!="):
            raise self._error("expected '=' or '!=' after a term", op)
        self._advance()
        right_token = self._peek()
        right = self._term()
        for term, token in ((left, left_token), (right, right_token)):
            if not is_object_term(term):
                raise KindError(
                    f"equality compares object terms, but {_shown(term)}"
                    " is a concept term",
                    token.line,
                    token.column,
                )
        return Eq(left, right) if op.value == "=" else Neq(left, right)

    def _variable(self) -> Var:
        token = self._peek()
        if token.kind == "OVAR":
            self._advance()
            return ObjectVar(token.value[1:])
        if token.kind == "CVAR":
            self._advance()
            return ConceptVar(token.value[1:])
        raise self._error("expected a variable ('?name' or '%name')", token)

    def _term(self) -> Term:
        token = self._peek()
        if token.kind == "OBJCONST":
            self._advance()
            return ObjectConst(token.value[1:-1])
        if token.kind in ("OVAR", "CVAR"):
            return self._variable()
        if token.value == "@":
            self._advance()
            inner = self._peek()
            if inner.kind == "NAME" and inner.value not in _KEYWORDS:
                self._advance()
                return Relativized(ConceptConst(inner.value))
            if inner.kind == "CVAR":
                self._advance()
                return Relativized(ConceptVar(inner.value[1:]))
            raise self._error("expected a concept constant or '%variable' after '@'", inner)
        if token.kind == "NAME" and token.value not in _KEYWORDS:
            self._advance()
            return ConceptConst(token.value)
        raise self._error("expected a term", token)


def parse_formula(text: str) -> Formula:
    """Parse query text into a formula; raises QuerySyntaxError/KindError."""
    return _Parser(_tokenize(text)).parse()


def parse_variable(name: str) -> Var:
    """Parse a sigiled variable name such as ``?x`` or ``%a``: one ``OVAR`` or ``CVAR`` token."""
    token = _TOKEN_RE.fullmatch(name)
    kind = token.lastgroup if token else None
    if kind not in ("OVAR", "CVAR"):
        shown = reprlib.repr(name)
        raise QuerySyntaxError(f"not a variable name: {shown} (use '?name' or '%name')")
    return ObjectVar(name[1:]) if kind == "OVAR" else ConceptVar(name[1:])


def parse_query(text: str, target: list[str] | tuple[str, ...] = ()) -> ModalQuery:
    """Parse query text plus its ordered target-variable names."""
    formula = parse_formula(text)
    variables = tuple(parse_variable(name) for name in target)
    return ModalQuery(formula, variables)


# ---------------------------------------------------------------------------
# Rendering

_PREC = {
    Implies: 1,
    Exists: 1,
    Forall: 1,
    Or: 2,
    And: 3,
    Not: 4,
    Diamond: 4,
    Box: 4,
    Eq: 5,
    Neq: 5,
    Abstraction: 5,
}


def render_formula(formula: Formula) -> str:
    """Canonical text for a formula; ``parse_formula`` round-trips it.

    A formula deeper than ``MAX_NESTING`` is refused before rendering recurses.
    """
    _refuse_past_limit(formula_depth(formula))
    return _render(formula, 1)


def _render(formula: Formula, min_prec: int) -> str:
    match formula:
        case Eq(left, right):
            text = f"{left} = {right}"
        case Neq(left, right):
            text = f"{left} != {right}"
        case Not(body):
            text = f"!{_render(body, 4)}"
        case And(left, right):
            text = f"{_render(left, 3)} & {_render(right, 4)}"
        case Or(left, right):
            text = f"{_render(left, 2)} | {_render(right, 3)}"
        case Implies(left, right):
            text = f"{_render(left, 2)} -> {_render(right, 1)}"
        case Diamond(rel, body):
            text = f"<{rel}> {_render(body, 4)}"
        case Box(rel, body):
            text = f"[{rel}] {_render(body, 4)}"
        case Exists(var, body):
            text = f"exists {var} . {_render(body, 1)}"
        case Forall(var, body):
            text = f"forall {var} . {_render(body, 1)}"
        case Abstraction(var, body, argument):
            text = f"<lam {var} . {_render(body, 1)}>({argument})"
        case _:
            raise TypeError(f"not a formula: {formula!r}")
    if _PREC[type(formula)] < min_prec:
        return f"({text})"
    return text
