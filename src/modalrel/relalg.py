"""Positional (unnamed) relational algebra over in-memory tuple sets.

Relations are finite sets of equal-length string tuples; attributes are the
1-based positions 1..degree.  Expressions are immutable trees over the four
base relations of a mapped database plus singleton constants, closed under
selection, projection, cross product, union, difference and intersection.

Degrees are checked once, statically, by ``degree_of`` before an expression
runs; evaluation then passes intermediate results as plain row sets, and only
the answer becomes a ``RelationInstance``.

Evaluation follows the tree node by node, with one physical shortcut: a chain
of ``Selection`` nodes over a ``Product`` runs as a hash equi-join (the
build/probe join of Graefe, "Query Evaluation Techniques for Large
Databases", ACM CSUR 1993) and never builds the product.  The tree itself is
not rewritten, so the plan ``translate`` prints is still the logical plan
that runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import DegreeError, QuerySyntaxError, UnknownRelation
from .syntax import MAX_NESTING

STA = "Sta"
REL = "Rel"
CON = "Con"
OBJ = "Obj"
SCHEMA_NAMES = (STA, REL, CON, OBJ)

# Deepest parenthesis nesting that ``parse_algebra`` reads; its reader and
# builder recurse once per level.  The deepest plan the translator emits for
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
class SingletonConstant(_Node):
    """The degree-1 instance holding exactly one value."""

    value: str


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
    | SingletonConstant
    | Selection
    | Projection
    | Product
    | Union
    | Difference
    | Intersection
)


def degree_of(expr: AlgebraExpr, schema: Mapping[str, int]) -> int:
    """Static degree of an expression; raises on any arity violation."""
    match expr:
        case BaseRelation(name):
            if name not in schema:
                raise UnknownRelation(f"unknown relation {name!r}")
            return schema[name]
        case SingletonConstant(_):
            return 1
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


def _join(
    predicates: list[SelectionPredicate], product: Product, db: DatabaseInstance
) -> frozenset[Row]:
    """The rows of ``product`` that satisfy every predicate (all rows if none).

    The product is built whole only when it is the answer.  Each predicate
    reading one side only filters that side first; every ``=`` between a left
    and a right column joins into one (maybe composite) key, on which the
    right side is hashed and probed with the left; the other predicates
    filter the joined rows.
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
        return frozenset(row for row in joined if _holds_all(residual, row))
    return frozenset(joined)


def _eval(expr: AlgebraExpr, db: DatabaseInstance) -> frozenset[Row]:
    match expr:
        case BaseRelation(name):
            return db.relations[name].tuples
        case SingletonConstant(value):
            return frozenset({(value,)})
        case Selection():
            predicates = []
            while isinstance(expr, Selection):
                predicates.append(expr.predicate)
                expr = expr.input
            if isinstance(expr, Product):
                return _join(predicates, expr, db)
            return frozenset(row for row in _eval(expr, db) if _holds_all(predicates, row))
        case Projection(indices, inner):
            return frozenset(tuple(row[i - 1] for i in indices) for row in _eval(inner, db))
        case Product():
            return _join([], expr, db)
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
        case SingletonConstant(value):
            return f"(const '{value}')"
        case Selection(predicate, inner):
            pred = (
                f"({predicate.op} {_render_operand(predicate.left)}"
                f" {_render_operand(predicate.right)})"
            )
            return f"(select {pred} {render_algebra(inner)})"
        case Projection(indices, inner):
            cols = " ".join(str(i) for i in indices)
            return f"(project ({cols}) {render_algebra(inner)})"
        case Product(left, right):
            return f"(product {render_algebra(left)} {render_algebra(right)})"
        case Union(left, right):
            return f"(union {render_algebra(left)} {render_algebra(right)})"
        case Difference(left, right):
            return f"(diff {render_algebra(left)} {render_algebra(right)})"
        case Intersection(left, right):
            return f"(intersect {render_algebra(left)} {render_algebra(right)})"
    raise TypeError(f"not an algebra expression: {expr!r}")


_SEXPR_TOKEN = re.compile(r"\s*('[^']*'|\(|\)|[^\s()']+)")


def _sexpr_read(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _SEXPR_TOKEN.match(text, pos)
        if m is None:
            break
        tokens.append(m.group(1))
        pos = m.end()
    if text[pos:].strip():
        raise QuerySyntaxError(f"bad algebra text near {text[pos:pos + 10]!r}")

    def read(index: int, depth: int):
        if index >= len(tokens):
            raise QuerySyntaxError("unexpected end of algebra text")
        token = tokens[index]
        if token == "(":
            if depth == MAX_PLAN_DEPTH:
                raise QuerySyntaxError(
                    f"algebra text nests more than {MAX_PLAN_DEPTH} levels deep"
                )
            items = []
            index += 1
            while index < len(tokens) and tokens[index] != ")":
                item, index = read(index, depth + 1)
                items.append(item)
            if index >= len(tokens):
                raise QuerySyntaxError("missing ')' in algebra text")
            return items, index + 1
        if token == ")":
            raise QuerySyntaxError("unexpected ')' in algebra text")
        return token, index + 1

    tree, end = read(0, 0)
    if end != len(tokens):
        raise QuerySyntaxError("trailing tokens after algebra expression")
    return tree


def _parse_index(token) -> int:
    if isinstance(token, str) and token.isdecimal() and int(token) >= 1:
        return int(token)
    raise QuerySyntaxError(f"bad column index {token!r}")


def _parse_operand(token) -> Column | Constant:
    if isinstance(token, str) and token.startswith("'"):
        return Constant(token[1:-1])
    return Column(_parse_index(token))


def _build(tree) -> AlgebraExpr:
    if isinstance(tree, str):
        if tree.startswith("'"):
            raise QuerySyntaxError(f"expected a relation name, got the constant {tree}")
        return BaseRelation(tree)
    if not tree:
        raise QuerySyntaxError("empty algebra expression")
    head = tree[0]
    if not isinstance(head, str):
        raise QuerySyntaxError("an algebra expression must start with an operator name")
    if head == "const" and len(tree) == 2 and isinstance(tree[1], str) and tree[1][0] == "'":
        return SingletonConstant(tree[1][1:-1])
    if head == "select" and len(tree) == 3 and isinstance(tree[1], list) and len(tree[1]) == 3:
        op, left, right = tree[1]
        if op not in ("=", "!="):
            raise QuerySyntaxError(f"bad selection operator {op!r}")
        return Selection(
            SelectionPredicate(_parse_operand(left), op, _parse_operand(right)),
            _build(tree[2]),
        )
    if head == "project" and len(tree) == 3 and isinstance(tree[1], list):
        indices = tuple(_parse_index(i) for i in tree[1])
        return Projection(indices, _build(tree[2]))
    binary = {"product": Product, "union": Union, "diff": Difference, "intersect": Intersection}
    if head in binary and len(tree) == 3:
        return binary[head](_build(tree[1]), _build(tree[2]))
    raise QuerySyntaxError(f"malformed {head!r} expression in algebra text")


def parse_algebra(text: str) -> AlgebraExpr:
    """Parse the canonical prefix text back into an expression tree.

    Malformed text, or text nesting more than ``MAX_PLAN_DEPTH`` levels,
    raises ``QuerySyntaxError``.
    """
    return _build(_sexpr_read(text))
