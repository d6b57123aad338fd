"""An independent check of ``relalg.evaluate``: the same plan, run by SQLite.

``to_sql`` renders a plan as one common table expression per node over the
four tables of a database, each with columns ``c1..cn``.  Set semantics come
from ``SELECT DISTINCT`` and from ``UNION``/``EXCEPT``/``INTERSECT``; the
tables themselves hold sets.  It is a check, not a backend: it lives in the
tests only.
"""

from __future__ import annotations

import sqlite3

import pytest

from modalrel import (
    BaseRelation,
    Column,
    Difference,
    Intersection,
    Product,
    Projection,
    Selection,
    Union,
    build_database,
    evaluate,
    gen_model,
    gen_query,
    translate_query,
)
from modalrel.harness import GenParams, case_params

SET_OPERATORS = {Union: "UNION", Difference: "EXCEPT", Intersection: "INTERSECT"}


def _columns(degree: int) -> str:
    return ", ".join(f"c{i}" for i in range(1, degree + 1))


def _operand(operand) -> str:
    if isinstance(operand, Column):
        return f"c{operand.index}"
    return "'" + operand.value.replace("'", "''") + "'"


def to_sql(expr, schema) -> str:
    """One ``SELECT`` over a ``WITH`` list that holds one CTE per plan node.

    A degree-0 projection has no SQL column list; it raises ``ValueError``.
    """
    ctes: list[str] = []

    def node(expr) -> tuple[str, int]:
        """The CTE (or table) name holding ``expr``, and its degree."""
        match expr:
            case BaseRelation(name):
                return name, schema[name]
            case Selection(predicate, inner):
                source, degree = node(inner)
                op = "=" if predicate.op == "=" else "<>"
                body = (
                    f"SELECT * FROM {source} "
                    f"WHERE {_operand(predicate.left)} {op} {_operand(predicate.right)}"
                )
            case Projection(indices, inner):
                if not indices:
                    raise ValueError("a degree-0 projection has no SQL column list")
                source, _ = node(inner)
                degree = len(indices)
                body = f"SELECT DISTINCT {', '.join(f'c{i}' for i in indices)} FROM {source}"
            case Product(left, right):
                (first, d1), (second, d2) = node(left), node(right)
                degree = d1 + d2
                body = f"SELECT * FROM {first} AS l CROSS JOIN {second} AS r"
            case Union(left, right) | Difference(left, right) | Intersection(left, right):
                (first, degree), (second, _) = node(left), node(right)
                body = f"SELECT * FROM {first} {SET_OPERATORS[type(expr)]} SELECT * FROM {second}"
        name = f"n{len(ctes)}"
        ctes.append(f"{name}({_columns(degree)}) AS ({body})")
        return name, degree

    root, _ = node(expr)
    return f"WITH {', '.join(ctes)} SELECT * FROM {root}" if ctes else f"SELECT * FROM {root}"


def sqlite_rows(expr, db) -> frozenset[tuple[str, ...]]:
    """Rows of ``expr`` over ``db``, as SQLite computes them."""
    connection = sqlite3.connect(":memory:")
    try:
        for name, instance in db.relations.items():
            connection.execute(f"CREATE TABLE {name} ({_columns(instance.degree)})")
            marks = ", ".join("?" * instance.degree)
            connection.executemany(f"INSERT INTO {name} VALUES ({marks})", instance.tuples)
        return frozenset(connection.execute(to_sql(expr, db.schema)))
    finally:
        connection.close()


def test_sql_rendering_of_each_operator(example_db):
    sta, obj = BaseRelation("Sta"), BaseRelation("Obj")
    assert to_sql(sta, example_db.schema) == "SELECT * FROM Sta"
    sql = to_sql(Union(Projection((1,), sta), Difference(obj, Intersection(obj, obj))),
                 example_db.schema)
    assert sql == (
        "WITH n0(c1) AS (SELECT DISTINCT c1 FROM Sta), "
        "n1(c1) AS (SELECT * FROM Obj INTERSECT SELECT * FROM Obj), "
        "n2(c1) AS (SELECT * FROM Obj EXCEPT SELECT * FROM n1), "
        "n3(c1) AS (SELECT * FROM n0 UNION SELECT * FROM n2) SELECT * FROM n3"
    )
    with pytest.raises(ValueError):
        to_sql(Projection((), sta), example_db.schema)


def test_sqlite_agrees_with_evaluate_on_campaign_plans():
    # the acceptance campaign's first 200 cases: joins, padding, differences
    params = GenParams(seed=42)
    for i in range(200):
        local = case_params(params, i)
        model = gen_model(local)
        db = build_database(model)
        expr = translate_query(gen_query(local, model), model)
        assert sqlite_rows(expr, db) == evaluate(expr, db).tuples, i


def test_sqlite_agrees_with_evaluate_on_wider_models():
    # 10 states and 10 objects: joins on two or more columns over larger
    # inputs, and projections of joins that the acceptance bounds keep small
    params = GenParams(seed=10, max_states=10, max_objects=10)
    for i in range(300):
        local = case_params(params, i)
        model = gen_model(local)
        db = build_database(model)
        expr = translate_query(gen_query(local, model), model)
        assert sqlite_rows(expr, db) == evaluate(expr, db).tuples, i
