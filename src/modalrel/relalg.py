"""Positional (unnamed) relational algebra over in-memory tuple sets.

Relations are finite sets of equal-length string tuples; attributes are the
1-based positions 1..degree.  Expressions are immutable trees over the four
base relations of a mapped database, closed under selection, projection,
cross product, union, difference and intersection.

Degrees are checked once, statically, by ``degree_of`` before an expression
runs; evaluation then passes intermediate results as plain row sets, and only
the answer becomes a ``RelationInstance``.

Evaluation follows the tree node by node, except that every maximal chain of
``Selection`` and ``Projection`` nodes runs as one pass over the node below
it: a scan of its rows, or, if it is a ``Product``, a build/probe hash join
that never builds it (Graefe, "Query Evaluation Techniques for Large
Databases", ACM CSUR 1993).  The plan ``translate`` prints is the one that runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .errors import DegreeError, QuerySyntaxError, UnknownRelation
from .syntax import MAX_NESTING

STA = "Sta"
REL = "Rel"
CON = "Con"
OBJ = "Obj"
SCHEMA_NAMES = (STA, REL, CON, OBJ)

# Deepest parenthesis nesting that ``parse_algebra`` reads; its reader
# recurses once per level.  The deepest plan the translator emits for
# query text within ``MAX_NESTING`` is 64 ``[R]`` at 387 levels (each ``[R]``
# adds 6), so 8 levels per query level keep every emitted plan readable.
MAX_PLAN_DEPTH = 8 * MAX_NESTING


@dataclass(frozen=True)
class RelationInstance:
    """A finite set of `degree`-length tuples of domain strings."""

    degree: int
    tuples: frozenset[tuple[str, ...]]

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeError(f"degree must be non-negative, got {self.degree}")
        for row in self.tuples:
            if len(row) != self.degree:
                raise DegreeError(
                    f"tuple {row!r} does not match degree",
                    expected=self.degree,
                    found=len(row),
                )

    @classmethod
    def of(cls, degree: int, rows: Iterable[Iterable[str]]) -> RelationInstance:
        return cls(degree, frozenset(tuple(row) for row in rows))

    def sorted_rows(self) -> list[tuple[str, ...]]:
        return sorted(self.tuples)


def to_tsv(instance: RelationInstance, header: bool = False) -> str:
    """Tab-separated rows in lexicographic order, one tuple per line."""
    lines = []
    if header:
        lines.append("\t".join(str(i) for i in range(1, instance.degree + 1)))
    lines.extend("\t".join(row) for row in instance.sorted_rows())
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class DatabaseInstance:
    """The four-relation image of a model: Sta, Rel, Con, Obj.

    `relation_names` records the accessibility-relation names that may appear
    in Rel's third column; they are part of the database domain.
    """

    relations: dict[str, RelationInstance]
    relation_names: frozenset[str]

    def __post_init__(self):
        if set(self.relations) != set(SCHEMA_NAMES):
            raise DegreeError(f"database needs exactly the relations {SCHEMA_NAMES}")
        for name, want in ((REL, 3), (CON, 1), (OBJ, 1)):
            if self.relations[name].degree != want:
                raise DegreeError(
                    f"{name} has the wrong degree",
                    expected=want,
                    found=self.relations[name].degree,
                )
        if self.relations[STA].degree < 1:
            raise DegreeError(f"{STA} must have at least one column (the id)")

    @property
    def schema(self) -> dict[str, int]:
        return {name: inst.degree for name, inst in self.relations.items()}


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Column:
    """A 1-based attribute position."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise DegreeError(f"column indices are 1-based, got {self.index}")


@dataclass(frozen=True)
class Constant:
    value: str


@dataclass(frozen=True)
class SelectionPredicate:
    """Comparison of two operands, each a column or a constant."""

    left: Column | Constant
    op: str  # "=" or "!="
    right: Column | Constant

    def __post_init__(self):
        if self.op not in ("=", "!="):
            raise DegreeError(f"selection operator must be '=' or '!=', got {self.op!r}")


class _Node:
    """Equality and hashing by structure for expression nodes, without recursion.

    A dataclass's generated ``__eq__`` and ``__repr__``, ``copy.deepcopy`` and
    ``pickle`` recurse several interpreter levels per node, more than a
    translated plan a few hundred levels deep leaves room for.  Equality and
    hashing here read a flat listing instead: in pre-order, each node's type
    and then its fields that are not subtrees.  Every node type has a fixed
    list of fields, so the listing fixes the tree.  ``repr`` and the pickled
    form are the rendered text, one frame per level.
    """

    def _listing(self) -> list:
        listing = []
        pending = [self]
        while pending:
            node = pending.pop()
            listing.append(type(node))
            for field in fields(node):
                value = getattr(node, field.name)
                if isinstance(value, _Node):
                    pending.append(value)
                else:
                    listing.append(value)
        return listing

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self._listing() == other._listing()

    def __hash__(self):
        return hash(tuple(self._listing()))

    def __repr__(self):
        return f"parse_algebra({render_algebra(self)!r})"

    # A plan is an immutable value, so every copy of it may be the plan itself.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return parse_algebra, (render_algebra(self),)


@dataclass(frozen=True, eq=False, repr=False)
class BaseRelation(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Selection(_Node):
    predicate: SelectionPredicate
    input: AlgebraExpr


@dataclass(frozen=True, eq=False, repr=False)
class Projection(_Node):
    indices: tuple[int, ...]  # may be empty, may repeat
    input: AlgebraExpr


@dataclass(frozen=True, eq=False, repr=False)
class Product(_Node):
    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True, eq=False, repr=False)
class Union(_Node):
    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True, eq=False, repr=False)
class Difference(_Node):
    left: AlgebraExpr
    right: AlgebraExpr


@dataclass(frozen=True, eq=False, repr=False)
class Intersection(_Node):
    left: AlgebraExpr
    right: AlgebraExpr


AlgebraExpr = (
    BaseRelation
    | Selection
    | Projection
    | Product
    | Union
    | Difference
    | Intersection
)

# The text keyword of each binary node, read by ``parse_algebra`` and
# ``render_algebra`` alike.
BINARY_OPERATORS = {
    "product": Product,
    "union": Union,
    "diff": Difference,
    "intersect": Intersection,
}


def degree_of(expr: AlgebraExpr, schema: Mapping[str, int]) -> int:
    """Static degree of an expression; raises on any arity violation."""
    match expr:
        case BaseRelation(name):
            if name not in schema:
                raise UnknownRelation(f"unknown relation {name!r}")
            return schema[name]
        case Selection(predicate, inner):
            degree = degree_of(inner, schema)
            for operand in (predicate.left, predicate.right):
                if isinstance(operand, Column) and operand.index > degree:
                    raise DegreeError(
                        f"selection column {operand.index} out of range",
                        expected=degree,
                        found=operand.index,
                    )
            return degree
        case Projection(indices, inner):
            degree = degree_of(inner, schema)
            for index in indices:
                if index < 1 or index > degree:
                    raise DegreeError(
                        f"projection index {index} out of range",
                        expected=degree,
                        found=index,
                    )
            return len(indices)
        case Product(left, right):
            return degree_of(left, schema) + degree_of(right, schema)
        case Union(left, right) | Difference(left, right) | Intersection(left, right):
            dl = degree_of(left, schema)
            dr = degree_of(right, schema)
            if dl != dr:
                raise DegreeError(
                    f"{type(expr).__name__.lower()} needs union-compatible inputs",
                    expected=dl,
                    found=dr,
                )
            return dl
    raise TypeError(f"not an algebra expression: {expr!r}")


def evaluate(expr: AlgebraExpr, db: DatabaseInstance) -> RelationInstance:
    """Set-semantics evaluation.

    The whole expression is degree-checked once, statically, before it runs;
    intermediate results are plain row sets, and only the answer is wrapped
    (and validated) as a ``RelationInstance``.
    """
    degree = degree_of(expr, db.schema)
    return RelationInstance(degree, _eval(expr, db))


Row = tuple[str, ...]


def _operand_value(operand: Column | Constant, row: Row, offset: int) -> str:
    if isinstance(operand, Column):
        return row[operand.index - 1 - offset]
    return operand.value


def _holds_all(predicates: list[SelectionPredicate], row: Row, offset: int = 0) -> bool:
    """Whether ``row`` satisfies every predicate, its columns shifted by ``offset``."""
    for predicate in predicates:
        left = _operand_value(predicate.left, row, offset)
        right = _operand_value(predicate.right, row, offset)
        if (left == right) != (predicate.op == "="):
            return False
    return True


def _picker(indices: tuple[int, ...]) -> Callable[[Row], Row]:
    """The function that projects a row onto the 1-based ``indices``."""
    if not indices:
        return lambda row: ()
    if len(indices) == 1:
        # ``itemgetter`` of one index returns the item, not a 1-tuple.
        index = indices[0] - 1
        return lambda row: (row[index],)
    return itemgetter(*(index - 1 for index in indices))


def _through(operand: Column | Constant, indices: tuple[int, ...]) -> Column | Constant:
    """``operand`` above a projection onto ``indices``, read in the projection's input."""
    return Column(indices[operand.index - 1]) if isinstance(operand, Column) else operand


def _pipeline(expr: AlgebraExpr) -> tuple[list[SelectionPredicate], Callable | None, AlgebraExpr]:
    """The predicates and picker (``None``: every column) of the selections and projections
    atop ``expr``, read in the columns of the node below them, and that node."""
    predicates, indices = [], None
    while isinstance(expr, (Selection, Projection)):
        if isinstance(expr, Selection):
            predicates.append(expr.predicate)
        else:
            inner = expr.indices
            predicates = [
                SelectionPredicate(_through(p.left, inner), p.op, _through(p.right, inner))
                for p in predicates
            ]
            indices = inner if indices is None else tuple(inner[i - 1] for i in indices)
        expr = expr.input
    return predicates, None if indices is None else _picker(indices), expr


def _join(
    predicates: list[SelectionPredicate],
    product: Product,
    db: DatabaseInstance,
    pick: Callable[[Row], Row] | None,
) -> frozenset[Row]:
    """The rows of ``product`` that satisfy every predicate (all rows if none),
    each picked by ``pick`` (if any) as the join yields it.

    The product is built whole only when it is the answer.  Each predicate
    reading one side only filters that side first; every ``=`` between a left
    and a right column joins into one (maybe composite) key, on which the
    right side is hashed and probed with the left; the other predicates
    filter the joined rows, which are never collected before they are picked.
    """
    left_rows = _eval(product.left, db)
    if not left_rows:
        return frozenset()
    right_rows = _eval(product.right, db)
    if not right_rows:
        return frozenset()
    split = len(next(iter(left_rows)))  # the left side's degree
    left_only, right_only, residual = [], [], []
    left_key, right_key = [], []
    for predicate in predicates:
        sides = {
            operand.index > split
            for operand in (predicate.left, predicate.right)
            if isinstance(operand, Column)
        }
        if sides == {True}:
            right_only.append(predicate)
        elif sides != {False, True}:
            left_only.append(predicate)  # also a comparison of two constants
        elif predicate.op == "=":
            first, second = sorted((predicate.left.index, predicate.right.index))
            left_key.append(first - 1)
            right_key.append(second - 1 - split)
        else:
            residual.append(predicate)
    if left_only:
        left_rows = [t for t in left_rows if _holds_all(left_only, t)]
    if right_only:
        right_rows = [u for u in right_rows if _holds_all(right_only, u, split)]
    if left_key:
        probe_key, build_key = itemgetter(*left_key), itemgetter(*right_key)
        buckets: dict[object, list[Row]] = {}
        for u in right_rows:
            buckets.setdefault(build_key(u), []).append(u)
        joined = (t + u for t in left_rows for u in buckets.get(probe_key(t), ()))
    else:
        joined = (t + u for t in left_rows for u in right_rows)
    if residual:
        joined = (row for row in joined if _holds_all(residual, row))
    return frozenset(joined if pick is None else map(pick, joined))


def _eval(expr: AlgebraExpr, db: DatabaseInstance) -> frozenset[Row]:
    match expr:
        case BaseRelation(name):
            return db.relations[name].tuples
        case Selection() | Projection() | Product():
            predicates, pick, source = _pipeline(expr)
            if isinstance(source, Product):
                return _join(predicates, source, db, pick)
            rows = _eval(source, db)
            if predicates:
                rows = (row for row in rows if _holds_all(predicates, row))
            return frozenset(rows if pick is None else map(pick, rows))
        case Union(left, right):
            return _eval(left, db) | _eval(right, db)
        case Difference(left, right):
            return _eval(left, db) - _eval(right, db)
        case Intersection(left, right):
            return _eval(left, db) & _eval(right, db)
    raise TypeError(f"not an algebra expression: {expr!r}")


# ---------------------------------------------------------------------------
# Text form


def _render_operand(operand: Column | Constant) -> str:
    if isinstance(operand, Column):
        return str(operand.index)
    return f"'{operand.value}'"


def render_algebra(expr: AlgebraExpr) -> str:
    """Canonical prefix text; ``parse_algebra`` round-trips it."""
    match expr:
        case BaseRelation(name):
            return name
        case Selection(predicate, inner):
            pred = (
                f"({predicate.op} {_render_operand(predicate.left)}"
                f" {_render_operand(predicate.right)})"
            )
            return f"(select {pred} {render_algebra(inner)})"
        case Projection(indices, inner):
            cols = " ".join(str(i) for i in indices)
            return f"(project ({cols}) {render_algebra(inner)})"
        case Product() | Union() | Difference() | Intersection():
            keyword = next(k for k, node in BINARY_OPERATORS.items() if isinstance(expr, node))
            return f"({keyword} {render_algebra(expr.left)} {render_algebra(expr.right)})"
    raise TypeError(f"not an algebra expression: {expr!r}")


# A quote with no closing quote after it is a token of its own, and an error.
_TOKEN = re.compile(r"'[^']*'|[()]|[^\s()']+|'")


def parse_algebra(text: str) -> AlgebraExpr:
    """Parse the canonical prefix text back into an expression tree.

    Malformed text, or text nesting more than ``MAX_PLAN_DEPTH`` levels,
    raises ``QuerySyntaxError``.
    """
    tokens = iter(_TOKEN.findall(text))
    depth = 0  # the parentheses open before the next token

    def take() -> str:
        nonlocal depth
        token = next(tokens, None)
        if token is None:
            raise QuerySyntaxError("unexpected end of algebra text")
        if token == "'":
            raise QuerySyntaxError("unclosed quote in algebra text")
        if token == "(":
            if depth == MAX_PLAN_DEPTH:
                raise QuerySyntaxError(
                    f"algebra text nests more than {MAX_PLAN_DEPTH} levels deep"
                )
            depth += 1
        elif token == ")":
            depth -= 1
        return token

    def expect(want: str) -> None:
        token = take()
        if token != want:
            raise QuerySyntaxError(f"expected {want!r} in algebra text, got {token!r}")

    def index(token: str) -> int:
        # ASCII digits, few enough for int(): no plan is 10**18 columns wide.
        if token.isascii() and token.isdecimal() and len(token) <= 18 and int(token) >= 1:
            return int(token)
        raise QuerySyntaxError(f"bad column index {token!r}")

    def operand() -> Column | Constant:
        token = take()
        if token.startswith("'"):
            return Constant(token[1:-1])
        return Column(index(token))

    def expression() -> AlgebraExpr:
        token = take()
        if token != "(":
            if token == ")" or token.startswith("'"):
                raise QuerySyntaxError(f"expected a relation name, got {token!r}")
            return BaseRelation(token)
        head = take()
        if head == "select":
            expect("(")
            op = take()
            if op not in ("=", "!="):
                raise QuerySyntaxError(f"bad selection operator {op!r}")
            left = operand()
            right = operand()
            expect(")")
            node = Selection(SelectionPredicate(left, op, right), expression())
        elif head == "project":
            expect("(")
            indices = []
            while (token := take()) != ")":
                indices.append(index(token))
            node = Projection(tuple(indices), expression())
        elif head in BINARY_OPERATORS:
            node = BINARY_OPERATORS[head](expression(), expression())
        else:
            raise QuerySyntaxError(f"unknown algebra operator {head!r}")
        expect(")")
        return node

    plan = expression()
    if next(tokens, None) is not None:
        raise QuerySyntaxError("trailing tokens after algebra expression")
    return plan
