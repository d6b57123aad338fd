"""Positional (unnamed) relational algebra over in-memory tuple sets.

Relations are finite sets of equal-length string tuples; attributes are the
1-based positions 1..degree.  Expressions are immutable DAGs over the four
base relations of a mapped database, closed under selection, projection,
cross product, union, difference and intersection: an operator node may be
the input of more than one parent, and is then a shared subplan (a base
relation is a leaf, and counts as a copy wherever it occurs).  The four
binary nodes share one base class; each stays its own type for ``==``,
hashing and ``match``.  Two plans are equal when they have the same tree and
share the same subplans, as their texts are; comparing and hashing take time
linear in a plan's distinct nodes at any depth.  A plan prints and pickles as
its text, in which a shared node is written out once, labelled ``#n=``, and
then referred to as ``#n#`` (the labels of the Common Lisp reader).

Degrees are checked once, statically, by ``degree_of`` before an expression
runs, and only the answer becomes a ``RelationInstance``.  Both visit each
distinct node once: ``degree_of`` finds the nodes with more than one parent,
and ``evaluate`` keeps the rows of those alone, as sets, for the length of
one call.

Evaluation follows the plan node by node, except that every maximal chain of
``Selection`` and ``Projection`` nodes runs as one pass over the node below
it: a scan of its rows, or, if it is a ``Product``, a build/probe hash join
that never builds it (Graefe, "Query Evaluation Techniques for Large
Databases", ACM CSUR 1993).  A chain ends above a shared node.  A node with
one parent streams its rows to that parent as an iterator, as in Graefe's
Volcano (IEEE TKDE 1994), and may repeat a row.  A set is built only where
rows are kept or looked up: at a shared node, at both inputs of a join, at
the right side of a difference or an intersection, and at the answer.  So
chains, joins, unions and the left sides of differences and intersections
stream.

Each scan and each join runs as one kernel: a generator compiled from
generated text, once per layout, that reads its input rows and builds each
output row from them directly (Neumann, "Efficiently Compiling Efficient
Query Plans for Modern Hardware", VLDB 2011).  The right side of a join
with a key is hashed into a table by one more kernel, the builder, which
also applies the tests of that side alone; the join's kernel probes it
with each left row.  A scan's layout is the positions and operators of its
tests and the output positions; a builder's is its key columns and its
tests; a join's is the left side's degree, the left row's key positions,
the positions and operators of the other tests between the two sides, and
the output positions (a test of the left side alone filters it first, in a
scan).  The text holds integers, the kernel's own names and ``==`` or
``!=``; constants are arguments, so plans that differ only in constants
share a kernel.  A fixed-size cache keeps the ``KERNEL_CACHE_SIZE`` most
recently used.  The plan ``translate`` prints is the one that runs.

A database keeps its access paths from one query to the next (Selinger et
al., "Access Path Selection in a Relational Database Management System",
SIGMOD 1979), and so does a ``DatabaseInstance``: it keeps each table that
the builder makes over a stored leaf, a base relation or a chain of
``column = constant`` selections over one, when the join's own tests of
that side are ``column = constant`` too.  Such a table depends on the data
alone.  Its key is the relation, then the tested (column, constant) pairs
of the leaf and the chain, merged and sorted, then the key columns, which
are distinct and sorted; every later join or division on the image that
asks for the same key reads the table instead of hashing the relation
again.  A table is kept once it is fully built, and only if it has a row.
For one relation, tested columns and key columns, the kept tables over all
constants partition the relation, so what an image keeps is bounded by its
data, not by the number of plans it answers.  A right side that is a
derived subplan, or that a ``!=`` or a test of two columns reads, is
hashed on every call.  ``schema.build_database`` keeps one image with each
model, so every query on a model reads the same image and tables.

One more shape runs as one kernel: ``A − π(J − X)``, in which ``J`` is a
chain over ``A × B`` whose left input is the very node ``A``, and the
projection picks ``A``'s columns, in order, from ``J``'s rows.  A row ``a``
of ``A`` is in ``π(J − X)`` just when some ``b`` in ``B`` passes the chain's
tests with ``a`` while their row of ``J`` lies outside ``X``; so the
difference keeps each ``a`` that has no such ``b``.  That is Codd's division
written in the basic operators, and it runs as a hash division (Graefe and
Cole, "Fast Algorithms for Universal Quantification in Large Databases",
ACM TODS 1995): ``B``'s table is built, or read, as for a join, each
``a`` probes it, and the probe stops at the first such ``b``.  Neither
``J`` nor its projection is produced.  A test of ``a`` alone is one of the
chain's tests, so an ``a`` that fails it has no such ``b`` and is kept; the
layout holds those tests apart.  The projection, the inner difference, the chain and the product
must not be shared; any other difference runs as above.  The guarded box
that ``translate`` emits for ``[R] f`` has this shape.
"""

from __future__ import annotations

import functools
import re
import reprlib
from itertools import chain, filterfalse
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DegreeError, QuerySyntaxError, UnknownRelation
from .syntax import MAX_NESTING, _set, _Value

STA = "Sta"
REL = "Rel"
CON = "Con"
OBJ = "Obj"
SCHEMA_NAMES = (STA, REL, CON, OBJ)

# Deepest parenthesis nesting that ``parse_algebra`` reads; its reader
# recurses once per level.  Within ``MAX_NESTING``, 64 nested dual ``[R]``
# nest their text 387 levels deep (each adds 6).  A guarded ``[R]`` adds 11,
# but one nested in another needs an ``&`` between them, and its text writes
# each shared subplan once: 32 of them nest 323 levels deep.  So 8 levels per
# query level keep these plans readable; a conjunction that joins on many
# variables at every level can still nest deeper.
MAX_PLAN_DEPTH = 8 * MAX_NESTING


class RelationInstance(_Value):
    """A finite set of `degree`-length tuples of domain strings."""

    def __init__(self, degree: int, tuples: frozenset[tuple[str, ...]]):
        if degree < 0:
            raise DegreeError(f"degree must be non-negative, got {degree}")
        for row in tuples:
            if len(row) != degree:
                raise DegreeError(
                    f"tuple {row!r} does not match degree",
                    expected=degree,
                    found=len(row),
                )
        _set(self, "degree", degree)
        _set(self, "tuples", tuples)

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


class DatabaseInstance(_Value):
    """The four-relation image of a model: Sta, Rel, Con, Obj.

    `relations` is a read-only copy of the mapping it is given, so a table
    cannot be swapped for one that skips the degree checks.
    `relation_names` records the accessibility-relation names that may appear
    in Rel's third column; they are part of the database domain.

    An instance keeps, as ``_tables``, the hash tables that joins and
    divisions build over its stored leaves (see ``_partners``), for every later
    ``evaluate`` on it.  They are not a field, so equality, ``repr``,
    ``replace`` and pickling see only the relations and the names.
    """

    def __init__(self, relations: Mapping[str, RelationInstance], relation_names: frozenset[str]):
        if set(relations) != set(SCHEMA_NAMES):
            raise DegreeError(f"database needs exactly the relations {SCHEMA_NAMES}")
        for name, want in ((REL, 3), (CON, 1), (OBJ, 1)):
            if relations[name].degree != want:
                raise DegreeError(
                    f"{name} has the wrong degree",
                    expected=want,
                    found=relations[name].degree,
                )
        if relations[STA].degree < 1:
            raise DegreeError(f"{STA} must have at least one column (the id)")
        _set(self, "relations", MappingProxyType(dict(relations)))
        _set(self, "relation_names", relation_names)
        _set(self, "_tables", {})  # filled by ``_partners``

    def __reduce__(self):
        # A read-only mapping does not pickle; the dict it wraps does.
        return DatabaseInstance, (dict(self.relations), self.relation_names)

    @property
    def schema(self) -> dict[str, int]:
        return {name: inst.degree for name, inst in self.relations.items()}


# ---------------------------------------------------------------------------
# Expressions


class Column(_Value):
    """A 1-based attribute position."""

    def __init__(self, index: int):
        if index < 1:
            raise DegreeError(f"column indices are 1-based, got {index}")
        _set(self, "index", index)


class Constant(_Value):
    def __init__(self, value: str):
        _set(self, "value", value)


class SelectionPredicate(_Value):
    """Comparison of two operands, each a column or a constant; ``op`` is "=" or "!="."""

    def __init__(self, left: Column | Constant, op: str, right: Column | Constant):
        if op not in ("=", "!="):
            raise DegreeError(f"selection operator must be '=' or '!=', got {op!r}")
        _set(self, "left", left)
        _set(self, "op", op)
        _set(self, "right", right)


class _Node(_Value):
    """An expression node, whose ``repr`` and pickled form are its text.

    Text takes one frame per level; ``_Value``'s unpickling takes several,
    more than a plan a few hundred levels deep leaves room for, and its
    ``repr`` would spell a shared subplan out once per parent.
    """

    def _listing(self) -> list:
        # ``_Value``'s listing, in which an operator node met again is its
        # number in order of first visit: an int, where the listing of a
        # fresh node starts with its class.  So the listing fixes the tree
        # and which operators it shares, and its length is linear in the
        # distinct nodes.  A base relation is a leaf, listed where it occurs.
        listing = []
        numbers: dict[int, int] = {}
        pending = [self]
        while pending:
            value = pending.pop()
            if isinstance(value, _Operator):
                number = numbers.get(id(value))
                if number is not None:
                    listing.append(number)
                    continue
                numbers[id(value)] = len(numbers)
            listing.append(type(value))
            for name in value.__match_args__:
                field = getattr(value, name)
                if isinstance(field, _Value):
                    pending.append(field)
                else:
                    listing.append(field)
        return listing

    def __repr__(self):
        return f"parse_algebra({render_algebra(self)!r})"

    def __reduce__(self):
        return parse_algebra, (render_algebra(self),)


class BaseRelation(_Node):
    def __init__(self, name: str):
        _set(self, "name", name)


class _Operator(_Node):
    """A node with inputs, which a plan may share between parents."""


class Selection(_Operator):
    def __init__(self, predicate: SelectionPredicate, input: AlgebraExpr):
        _set(self, "predicate", predicate)
        _set(self, "input", input)


class Projection(_Operator):
    def __init__(self, indices: tuple[int, ...], input: AlgebraExpr):  # may be empty, may repeat
        _set(self, "indices", indices)
        _set(self, "input", input)


class _Binary(_Operator):
    def __init__(self, left: AlgebraExpr, right: AlgebraExpr):
        _set(self, "left", left)
        _set(self, "right", right)


class Product(_Binary):
    pass


class Union(_Binary):
    pass


class Difference(_Binary):
    pass


class Intersection(_Binary):
    pass


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


def degree_of(
    expr: AlgebraExpr, schema: Mapping[str, int], shared: set[int] | None = None
) -> int:
    """Static degree of an expression; raises on any arity violation.

    Each distinct node is checked once.  If ``shared`` is given, the ``id`` of
    every operator node that more than one parent reads (or one parent twice)
    is added to it.
    """
    degrees: dict[int, int] = {}

    def visit(node: AlgebraExpr) -> int:
        if isinstance(node, BaseRelation):  # a leaf, never counted as shared
            if node.name not in schema:
                raise UnknownRelation(f"unknown relation {node.name!r}")
            return schema[node.name]
        key = id(node)
        degree = degrees.get(key)
        if degree is not None:
            if shared is not None:
                shared.add(key)
            return degree
        match node:
            case Selection(predicate, inner):
                degree = visit(inner)
                for operand in (predicate.left, predicate.right):
                    if isinstance(operand, Column) and operand.index > degree:
                        raise DegreeError(
                            f"selection column {operand.index} out of range",
                            expected=degree,
                            found=operand.index,
                        )
            case Projection(indices, inner):
                below = visit(inner)
                for index in indices:
                    if index < 1 or index > below:
                        raise DegreeError(
                            f"projection index {index} out of range",
                            expected=below,
                            found=index,
                        )
                degree = len(indices)
            case Product(left, right):
                degree = visit(left) + visit(right)
            case Union(left, right) | Difference(left, right) | Intersection(left, right):
                degree = visit(left)
                dr = visit(right)
                if degree != dr:
                    raise DegreeError(
                        f"{type(node).__name__.lower()} needs union-compatible inputs",
                        expected=degree,
                        found=dr,
                    )
            case _:
                raise TypeError(f"not an algebra expression: {node!r}")
        degrees[key] = degree
        return degree

    return visit(expr)


def evaluate(expr: AlgebraExpr, db: DatabaseInstance) -> RelationInstance:
    """Set-semantics evaluation.

    The whole expression is degree-checked once, statically, before it runs.
    Rows then stream from each node that has one parent to that parent; a set
    is built only where rows are looked up or kept (see the module docstring),
    and only the answer is wrapped (and validated) as a ``RelationInstance``.
    The rows of each shared node are computed once and kept until the call
    returns.
    """
    shared: set[int] = set()
    degree = degree_of(expr, db.schema, shared)
    return RelationInstance(degree, _eval(expr, db, dict.fromkeys(shared)))


Row = tuple[str, ...]

# The rows of each shared node of a plan, by ``id``; ``None`` until computed.
Memo = dict[int, "frozenset[Row] | None"]

# A test of a chain: an operand, "==" or "!=", an operand.  An operand is a
# 0-based column position in the rows below the chain, or a ``Constant``.
Test = tuple["int | Constant", str, "int | Constant"]

_OPERATORS = {"=": "==", "!=": "!="}

# How many compiled kernels ``_kernel`` keeps, the most recently used.  A
# 3,000-case ``modalrel fuzz`` campaign compiles 252 layouts on seed 42 and
# 259 on seed 2028 at the default depth, and 459 on seed 2029 at depth 16;
# of these, 46, 44 and 67 are builders, and one or two are divisions.
KERNEL_CACHE_SIZE = 512


def _position(operand: Column | Constant) -> int | Constant:
    return operand.index - 1 if isinstance(operand, Column) else operand


def _pipeline(
    expr: AlgebraExpr, memo: Memo
) -> tuple[list[Test], tuple[int, ...] | None, AlgebraExpr]:
    """The tests and output positions (``None``: every column) of the selections and
    projections atop ``expr``, read in the columns of the node below them, and that node.
    The chain stops above a shared node, whose rows are kept whole."""
    tests: list[Test] = []
    output = None
    while isinstance(expr, (Selection, Projection)):
        if isinstance(expr, Selection):
            predicate = expr.predicate
            tests.append(
                (_position(predicate.left), _OPERATORS[predicate.op], _position(predicate.right))
            )
        else:
            # A test or an output above a projection reads the column it picks.
            below = [index - 1 for index in expr.indices]
            tests = [
                (below[a] if isinstance(a, int) else a, op, below[b] if isinstance(b, int) else b)
                for a, op, b in tests
            ]
            output = tuple(below) if output is None else tuple(below[p] for p in output)
        expr = expr.input
        if memo and id(expr) in memo:
            break
    return tests, output, expr


def _slots(tests: list[Test]) -> tuple[tuple[Test, ...], list] | None:
    """``tests`` with the k-th constant replaced by the slot -1-k, and the
    constants' values in slot order.  A test of two constants is decided here
    and dropped; ``None`` if one fails."""
    slotted, constants = [], []
    for a, op, b in tests:
        if not isinstance(a, int) and not isinstance(b, int):
            if (a.value == b.value) != (op == "=="):
                return None
            continue
        if not isinstance(a, int):
            constants.append(a.value)
            a = -len(constants)
        if not isinstance(b, int):
            constants.append(b.value)
            b = -len(constants)
        slotted.append((a, op, b))
    return tuple(slotted), constants


def _kernel_source(
    split: int | None,
    keys: tuple[int, ...],
    tests: tuple[Test, ...],
    output: tuple[int, ...] | None,
    division: tuple[Test, ...] | None = None,
) -> str:
    """The text of the kernel for a layout.  A scan (``split`` is ``None``,
    no ``keys``) yields each of its ``rows`` that passes every test, picked by
    ``output``; a test may read the constants, which it takes as the
    arguments ``c0``, ``c1``, ...  A builder (``split`` is ``None``, with
    ``keys``) returns the table of its ``rows`` that pass every test: a dict
    from a row's values at the ``keys`` positions (one value, or a tuple of
    several) to the list of rows that have them.  A join of ``left`` rows of
    ``split`` columns probes such a table, its ``right``, with each left
    row's values at its ``keys`` positions (with no keys, ``right`` is the
    right rows, each a partner of every left row), and yields each joined
    row that passes every test, picked by ``output``; it reads each position
    in the joined row.  A division (whose ``division`` holds the tests that
    read the left row alone) probes the same way and yields each left row
    with no partner: none of its right rows passes every test with it while
    their output row lies outside ``drop``.  It stops at the first such
    partner, and a left row that fails a test of ``division`` has none.  The
    text holds integers, names of its own and ``==`` or ``!=``, nothing
    else."""
    every_test = (*tests, *(division or ()))
    numbers = [*keys] + [p for a, _, b in every_test for p in (a, b)]
    numbers += [*(output or ()), *([] if split is None else [split])]
    if any(type(n) is not int for n in numbers) or any(
        op not in ("==", "!=") for _, op, _ in every_test
    ):
        raise TypeError("a kernel layout holds integers and '==' or '!=' only")

    def operand(p: int) -> str:
        if p < 0:
            return f"c{-1 - p}"
        return f"t[{p}]" if split is None or p < split else f"u[{p - split}]"

    def key(positions: tuple[int, ...]) -> str:
        if len(positions) == 1:
            return operand(positions[0])
        return "(" + ", ".join(map(operand, positions)) + ")"

    def condition(tests: Iterable[Test], *more: str) -> str:
        return " and ".join([*(f"{operand(a)} {op} {operand(b)}" for a, op, b in tests), *more])

    constants = "".join(f", c{k}" for k in range(sum(p < 0 for p in numbers)))
    if split is None:
        lines = [(0, f"def kernel(rows{constants}):")]
        if keys:
            lines.append((1, "table = {}"))
        lines.append((1, "for t in rows:"))
    else:
        drop = "" if division is None else ", drop"
        lines = [(0, f"def kernel(left, right{drop}{constants}):")]
        if keys:
            partners = f"right.get({key(keys)}, ())"
        else:
            # The right rows are read once per left row, so they are listed.
            lines.append((1, "right = [*right]"))
            partners = "right"
        lines.append((1, "for t in left:"))
        if division:
            lines += [(2, f"if not ({condition(division)}):"), (3, "yield t"), (3, "continue")]
        lines.append((2, f"for u in {partners}:"))
    depth = lines[-1][0] + 1
    if output is not None:
        row = "(" + "".join(f"{operand(p)}, " for p in output) + ")"
    else:
        row = "t" if split is None else "t + u"
    if division is not None:
        lines += [
            (depth, f"if {condition(tests, f'{row} not in drop')}:"),
            (depth + 1, "break"),
            (depth - 1, "else:"),
            (depth, "yield t"),
        ]
    else:
        if tests:
            lines.append((depth, f"if {condition(tests)}:"))
            depth += 1
        if split is None and keys:
            lines += [(depth, f"table.setdefault({key(keys)}, []).append(t)"), (1, "return table")]
        else:
            lines.append((depth, f"yield {row}"))
    return "".join("    " * depth + text + "\n" for depth, text in lines)


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(
    split: int | None,
    keys: tuple[int, ...],
    tests: tuple[Test, ...],
    output: tuple[int, ...] | None,
    division: tuple[Test, ...] | None = None,
):
    """The kernel for a layout, compiled once while it stays in the cache."""
    namespace: dict = {}
    exec(
        _kernel_source(split, keys, tests, output, division), {"__builtins__": {}}, namespace
    )
    return namespace["kernel"]


def _scan(tests: list[Test], output: tuple[int, ...] | None, rows: Iterable[Row]) -> Iterable[Row]:
    """The ``rows`` that pass every test, each picked by ``output``."""
    slotted = _slots(tests)
    if slotted is None:
        return ()
    tests, constants = slotted
    if not tests and output is None:
        return rows
    return _kernel(None, (), tests, output)(rows, *constants)


def _stored_key(
    expr: AlgebraExpr, tests: list[Test], columns: tuple[int, ...]
) -> tuple[str, tuple[tuple[int, str], ...], tuple[int, ...]] | None:
    """The key under which ``db._tables`` keeps the table of ``expr``'s rows
    that pass ``tests``, hashed on ``columns``; ``None`` unless ``expr`` is a
    stored leaf (a base relation, or a chain of column = constant selections
    over one) and every test is one more ``==`` of a column and a constant.
    The key is the relation's name, then the (column, constant) of every
    test of the leaf and of ``tests``, merged and sorted, then ``columns``."""
    tested = []
    while type(expr) is Selection:
        left, op, right = expr.predicate.left, expr.predicate.op, expr.predicate.right
        if op != "=" or type(left) is type(right):
            return None
        column, constant = (left, right) if type(left) is Column else (right, left)
        tested.append((column.index - 1, constant.value))
        expr = expr.input
    if type(expr) is not BaseRelation:
        return None
    for a, op, b in tests:
        if op != "==" or (type(a) is int) == (type(b) is int):
            return None
        tested.append((a, b.value) if type(a) is int else (b, a.value))
    return expr.name, tuple(sorted(set(tested))) if tested else (), columns


def _sides(
    tests: list[Test], split: int
) -> tuple[list[Test], list[Test], tuple[int, ...], tuple[int, ...], list[Test]]:
    """The ``tests`` of a product whose left side has ``split`` columns, by
    what they read: the left side alone (or constants alone); the right side
    alone, read in its own columns; the key; and every other test between
    the two sides.  Each right column that an ``==`` equates with a left
    column is a key column, paired with the first such left column (a test
    of it with another is a residual ``==``).  The key is the left positions
    that probe, then the right columns that are hashed, pair by pair in the
    order of the right columns."""
    left_tests, right_tests, residual = [], [], []
    keys: dict[int, int] = {}  # right column -> left position
    for test in tests:
        a, op, b = test
        a_int, b_int = type(a) is int, type(b) is int
        reads_left = (a_int and a < split) or (b_int and b < split)
        reads_right = (a_int and a >= split) or (b_int and b >= split)
        if not reads_right:
            left_tests.append(test)
        elif not reads_left:
            right_tests.append((a - split if a_int else a, op, b - split if b_int else b))
        elif op == "==":
            left, right = (a, b) if a < b else (b, a)
            if keys.setdefault(right - split, left) != left:
                residual.append((left, op, right))
        else:
            residual.append(test)
    columns = tuple(sorted(keys) if len(keys) > 1 else keys)
    return left_tests, right_tests, tuple(map(keys.__getitem__, columns)), columns, residual


def _partners(
    expr: AlgebraExpr, tests: list[Test], columns: tuple[int, ...], db: DatabaseInstance, memo: Memo
) -> dict | Iterable[Row]:
    """The right side of a join or a division: the rows of ``expr`` that
    pass ``tests`` (read in its own columns), hashed on its ``columns`` by
    the builder kernel, or just filtered if there are no ``columns``.

    The table of a stored leaf (see ``_stored_key``) is built from the base
    relation's rows and kept in ``db._tables`` once it is built, if it has a
    row, for every later join or division on ``db`` that asks for it (see
    the module docstring for what that costs in memory).  Any other right
    side is evaluated, and its table built, on every call."""
    if not columns:
        rows = _eval(expr, db, memo)
        return _scan(tests, None, rows) if rows else ()
    key = _stored_key(expr, tests, columns)
    if key is None:
        rows = _eval(expr, db, memo)
        # ``_sides`` keeps every test of two constants on the left.
        tests, constants = _slots(tests) if tests else ((), ())
    else:
        table = db._tables.get(key)
        if table is not None:
            return table
        name, tested, _ = key
        rows = db.relations[name].tuples
        tests = tuple([(column, "==", -1 - k) for k, (column, _) in enumerate(tested)])
        constants = [value for _, value in tested]
    table = _kernel(None, columns, tests, None)(rows, *constants)
    if key is not None and table:
        db._tables[key] = table
    return table


def _join(
    tests: list[Test],
    output: tuple[int, ...] | None,
    product: Product,
    db: DatabaseInstance,
    memo: Memo,
) -> Iterable[Row]:
    """The rows of ``product`` that pass every test, each picked by ``output``,
    as the join's kernel yields them; the product itself is never built.

    Both inputs are sets.  Each test that reads one side only (or constants
    only) filters that side first: the left in a scan, the right as its
    table is built; the ``==`` tests between a left and a right column make
    the key on which the right side's table is hashed, and which the left
    probes; the kernel tests each joined row against the rest, and picks it,
    from the two rows it joins."""
    left = _eval(product.left, db, memo)
    if not left:
        return ()
    split = len(next(iter(left)))  # the left side's degree
    left_tests, right_tests, probe, columns, residual = _sides(tests, split)
    right = _partners(product.right, right_tests, columns, db, memo)
    if not right:
        return ()
    left = _scan(left_tests, None, left)
    return _kernel(split, probe, tuple(residual), output)(left, right)


def _divide(
    left: AlgebraExpr, right: AlgebraExpr, db: DatabaseInstance, memo: Memo
) -> Iterable[Row] | None:
    """The rows of ``Difference(left, right)`` as a division kernel yields
    them (see the module docstring), or ``None`` if the plan lacks its shape:
    ``right`` is ``π(p)(J − X)``, ``J`` is a chain over ``Product(left, B)``
    and ``p`` picks ``left``'s columns in order from ``J``'s rows, and none
    of the projection, the inner difference, the chain and the product is
    shared.  ``B`` is hashed, or filtered, as a join's right side is; the
    kernel tests the rest."""
    if not isinstance(right, Projection) or id(right) in memo:
        return None
    inner = right.input
    if not isinstance(inner, Difference) or id(inner) in memo or id(inner.left) in memo:
        return None
    tests, output, product = _pipeline(inner.left, memo)
    if not isinstance(product, Product) or product.left is not left or id(product) in memo:
        return None
    split = len(right.indices)  # ``A``'s degree, as ``degree_of`` checked
    picked = [index - 1 if output is None else output[index - 1] for index in right.indices]
    if picked != list(range(split)):
        return None
    # ``A`` has two parents, so it is shared (or a base relation): a set.
    rows = _eval(left, db, memo)
    if not rows:
        return ()
    left_tests, right_tests, probe, columns, residual = _sides(tests, split)
    slotted = _slots(left_tests)
    if slotted is None:
        return rows  # ``J`` has no rows
    partners = _partners(product.right, right_tests, columns, db, memo)
    if not partners:
        return rows
    division, constants = slotted
    kernel = _kernel(split, probe, tuple(residual), output, division)
    return kernel(rows, partners, _eval(inner.right, db, memo), *constants)


def _eval(
    expr: AlgebraExpr, db: DatabaseInstance, memo: Memo, build: bool = True
) -> Iterable[Row]:
    """The rows of ``expr``: a set if ``build``, else any iterable of them,
    read once, which may repeat a row.  A base relation and a shared node are
    sets either way; a chain streams, and so does a join, a union and the left
    side of a difference or an intersection."""
    # A plan that shares nothing has an empty memo, and pays one test per node.
    if memo and (rows := memo.get(id(expr))) is not None:
        return rows
    match expr:
        case BaseRelation(name):
            return db.relations[name].tuples
        case Selection() | Projection() | Product():
            tests, output, source = _pipeline(expr, memo)
            if isinstance(source, Product) and (source is expr or id(source) not in memo):
                rows = _join(tests, output, source, db, memo)
            else:
                rows = _scan(tests, output, _eval(source, db, memo, False))
        case Union(left, right):
            rows = chain(_eval(left, db, memo, False), _eval(right, db, memo, False))
        case Difference(left, right):
            rows = _divide(left, right, db, memo)
            if rows is None:
                drop = _eval(right, db, memo)
                rows = _eval(left, db, memo, False)
                if drop:
                    rows = filterfalse(drop.__contains__, rows)
        case Intersection(left, right):
            keep = _eval(right, db, memo)
            rows = filter(keep.__contains__, _eval(left, db, memo, False)) if keep else ()
        case _:
            raise TypeError(f"not an algebra expression: {expr!r}")
    if memo and id(expr) in memo:
        rows = memo[id(expr)] = frozenset(rows)
    elif build and type(rows) is not frozenset:
        rows = frozenset(rows)
    return rows


# ---------------------------------------------------------------------------
# Text form


def _render_operand(operand: Column | Constant) -> str:
    if isinstance(operand, Column):
        return str(operand.index)
    return f"'{operand.value}'"


def _children(node: AlgebraExpr) -> tuple[AlgebraExpr, ...]:
    if isinstance(node, _Binary):
        return (node.left, node.right)
    return (node.input,) if isinstance(node, _Operator) else ()


def _shared_nodes(expr: AlgebraExpr) -> set[int]:
    """The ``id`` of every operator node of ``expr`` that more than one edge reaches."""
    seen: set[int] = set()
    shared: set[int] = set()
    pending = [expr]
    while pending:
        node = pending.pop()
        if not isinstance(node, _Operator):
            continue
        if id(node) in seen:
            shared.add(id(node))
        else:
            seen.add(id(node))
            pending.extend(_children(node))
    return shared


def render_algebra(expr: AlgebraExpr) -> str:
    """Canonical prefix text; ``parse_algebra`` round-trips it.

    A shared node is written out where it is first met, as ``#n=`` before
    its text, and as ``#n#`` everywhere after; n counts the shared nodes in
    the order they are first met, from 1.
    """
    shared = _shared_nodes(expr)
    labels: dict[int, int] = {}
    parts: list[str] = []

    def write(node: AlgebraExpr) -> None:
        if id(node) in shared:
            if id(node) in labels:
                parts.append(f"#{labels[id(node)]}#")
                return
            labels[id(node)] = len(labels) + 1
            parts.append(f"#{len(labels)}=")
        match node:
            case BaseRelation(name):
                parts.append(name)
                return
            case Selection(predicate, _):
                left, right = map(_render_operand, (predicate.left, predicate.right))
                parts.append(f"(select ({predicate.op} {left} {right}) ")
            case Projection(indices, _):
                parts.append(f"(project ({' '.join(map(str, indices))}) ")
            case _Binary():
                keyword = next(k for k, cls in BINARY_OPERATORS.items() if isinstance(node, cls))
                parts.append(f"({keyword} ")
            case _:
                raise TypeError(f"not an algebra expression: {node!r}")
        children = _children(node)
        for i, child in enumerate(children):
            if i:
                parts.append(" ")
            write(child)
        parts.append(")")

    write(expr)
    return "".join(parts)


# A quote with no closing quote after it is a token of its own, and an error.
_TOKEN = re.compile(r"'[^']*'|[()]|#[0-9]+[=#]|[^\s()']+|'")
# A label token: ``#n=`` before a shared node's text, ``#n#`` for the node.
_LABEL = re.compile(r"#([0-9]+)([=#])")


def parse_algebra(text: str) -> AlgebraExpr:
    """Parse the canonical prefix text back into an expression.

    ``#n=`` before an expression labels it, and a later ``#n#`` is that same
    node, so the plan shares it.  Malformed text, a label used before it is
    defined, inside its own definition or defined twice, or text nesting
    more than ``MAX_PLAN_DEPTH`` levels, raises ``QuerySyntaxError``.
    """
    tokens = iter(_TOKEN.findall(text))
    depth = 0  # the parentheses open before the next token
    labelled: dict[str, AlgebraExpr | None] = {}  # None while its definition is read

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
            raise QuerySyntaxError(f"expected {want!r} in algebra text, got {reprlib.repr(token)}")

    def index(token: str) -> int:
        # ASCII digits, few enough for int(): no plan is 10**18 columns wide.
        if token.isascii() and token.isdecimal() and len(token) <= 18 and int(token) >= 1:
            return int(token)
        raise QuerySyntaxError(f"bad column index {reprlib.repr(token)}")

    def operand() -> Column | Constant:
        token = take()
        if token.startswith("'"):
            return Constant(token[1:-1])
        return Column(index(token))

    def expression() -> AlgebraExpr:
        token = take()
        label = _LABEL.fullmatch(token)
        if label:
            name, kind = label.groups()
            if kind == "#":
                if name not in labelled:
                    raise QuerySyntaxError(f"label #{name}# is not defined")
                if labelled[name] is None:
                    raise QuerySyntaxError(f"label #{name}# is used inside its own definition")
                return labelled[name]
            if name in labelled:
                raise QuerySyntaxError(f"label #{name}= is defined twice")
            labelled[name] = None
            labelled[name] = node = expression()
            return node
        if token != "(":
            if token == ")" or token.startswith("'"):
                raise QuerySyntaxError(f"expected a relation name, got {reprlib.repr(token)}")
            return BaseRelation(token)
        head = take()
        if head == "select":
            expect("(")
            op = take()
            if op not in ("=", "!="):
                raise QuerySyntaxError(f"bad selection operator {reprlib.repr(op)}")
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
            raise QuerySyntaxError(f"unknown algebra operator {reprlib.repr(head)}")
        expect(")")
        return node

    plan = expression()
    if next(tokens, None) is not None:
        raise QuerySyntaxError("trailing tokens after algebra expression")
    return plan
