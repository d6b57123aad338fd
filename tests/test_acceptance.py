"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; a failing criterion raises with the same line in the message.
"""

from __future__ import annotations

import time

from modalrel import (
    OBJ,
    STA,
    BaseRelation,
    Box,
    Column,
    Constant,
    Diamond,
    Forall,
    ModalQuery,
    Not,
    ObjectVar,
    Product,
    Projection,
    RelationInstance,
    Selection,
    SelectionPredicate,
    Translator,
    answer_direct,
    build_database,
    evaluate,
    gen_model,
    gen_query,
    parse_query,
    run_campaign,
    translate_query,
)
from modalrel.cli import main
from modalrel.harness import GenParams, case_params
from modalrel.relalg import REL
from modalrel.syntax import Relativized
from modalrel.translate import VarContext, guarded_box

CAMPAIGN_PARAMS = GenParams(seed=42)  # the default bounds are the campaign's

# The duality checks wrap whole generated formulas in one more quantifier,
# which multiplies the evaluation cost; keep those inputs a notch smaller.
DUALITY_PARAMS = GenParams(seed=42, max_states=5, max_objects=6, max_depth=3, max_free_vars=1)

_artifacts: dict[str, str] = {}


def _criterion(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} — {description}"
    print(line)
    assert ok, line + (f" ({detail})" if detail else "")


# ---------------------------------------------------------------------------
# 1. Golden mapping


EXPECTED_TABLES = {
    "Sta.tsv": "1\td\n2\ta\n3\tb\n4\tc\n",
    "Rel.tsv": "1\t2\tCOMP\n1\t3\tCOMP\n1\t4\tCOMP\n",
    "Con.tsv": "code\nid\n",
    "Obj.tsv": "1\n2\n3\n4\na\nb\nc\nd\n",
}


def _map_output(example_model_path, tmp_path) -> str:
    out = tmp_path / "tables"
    assert main(["map", str(example_model_path), "--out-dir", str(out)]) == 0
    return "".join(f"{name}:{(out / name).read_text()}" for name in sorted(EXPECTED_TABLES))


def test_criterion_1_golden_mapping(example_model_path, tmp_path):
    start = time.perf_counter()
    combined = _map_output(example_model_path, tmp_path)
    elapsed = time.perf_counter() - start
    expected = "".join(f"{n}:{EXPECTED_TABLES[n]}" for n in sorted(EXPECTED_TABLES))
    _artifacts["map"] = combined
    _criterion(
        1,
        "map reproduces the example model's four tables cell-for-cell",
        combined == expected and elapsed < 1.0,
        f"elapsed {elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# 2. Golden query images via both engines


def _query_images(model) -> str:
    db = build_database(model)
    lines = []
    for text, target in (("@code = 'b'", ()), ("@id = '3' & @code = ?a", ("?a",))):
        query = parse_query(text, list(target))
        direct = answer_direct(model, query)
        algebra = evaluate(translate_query(query, model), db)
        lines.append(f"{text}|direct={direct.sorted_rows()}|algebra={algebra.sorted_rows()}")
    return "\n".join(lines)


def test_criterion_2_golden_query_images(example_model):
    start = time.perf_counter()
    db = build_database(example_model)
    no_var = parse_query("@code = 'b'")
    one_var = parse_query("@id = '3' & @code = ?a", ["?a"])
    results = {
        "no_var_direct": answer_direct(example_model, no_var),
        "no_var_algebra": evaluate(translate_query(no_var, example_model), db),
        "one_var_direct": answer_direct(example_model, one_var),
        "one_var_algebra": evaluate(translate_query(one_var, example_model), db),
    }
    elapsed = time.perf_counter() - start
    ok = (
        results["no_var_direct"] == results["no_var_algebra"] == RelationInstance.of(1, [("3",)])
        and results["one_var_direct"]
        == results["one_var_algebra"]
        == RelationInstance.of(2, [("b", "3")])
        and elapsed < 1.0
    )
    _artifacts["images"] = _query_images(example_model)
    _criterion(2, "golden query images {(3)} and {(b,3)} via both engines", ok)


# ---------------------------------------------------------------------------
# 3. Worked translations (structural)


def _pred(left, right):
    return SelectionPredicate(left, "=", right)


ATOMIC_TREE = Projection(
    (1,), Selection(_pred(Column(2), Constant("b")), BaseRelation(STA))
)

DIAMOND_TREE = Projection(
    (2,),
    Selection(
        _pred(Column(4), Constant("COMP")),
        Selection(_pred(Column(1), Column(3)), Product(ATOMIC_TREE, BaseRelation(REL))),
    ),
)


def test_criterion_3_worked_translations(example_model):
    atomic = translate_query(parse_query("@code = 'b'"), example_model)
    diamond = translate_query(parse_query("<COMP> @code = 'b'"), example_model)
    ok = atomic == ATOMIC_TREE and diamond == DIAMOND_TREE
    _criterion(3, "worked translations match the expected trees as emitted", ok)


# ---------------------------------------------------------------------------
# 4. Derived goldens: brute-force oracle first, then the algebra path


def test_criterion_4_derived_goldens(example_model):
    start = time.perf_counter()
    db = build_database(example_model)
    cases = [
        ("<COMP> @code = 'b'", {("1",)}),
        ("[COMP] @code = 'b'", {("2",), ("3",), ("4",)}),
        ("<lam ?y . <COMP> @code = ?y>(@code)", set()),
    ]
    ok = True
    detail = ""
    for text, frozen in cases:
        query = parse_query(text)
        oracle = answer_direct(example_model, query)  # independent brute force
        algebra = evaluate(translate_query(query, example_model), db)
        if oracle.tuples != frozen or algebra != oracle:
            ok = False
            detail = f"{text}: oracle={oracle.sorted_rows()} algebra={algebra.sorted_rows()}"
            break
    elapsed = time.perf_counter() - start
    _criterion(4, "derived diamond/box/lambda answers via oracle then algebra",
               ok and elapsed < 1.0, detail)


# ---------------------------------------------------------------------------
# 5. Correspondence campaign


def test_criterion_5_correspondence_campaign():
    summary = run_campaign(CAMPAIGN_PARAMS, 1000)
    _artifacts["campaign"] = summary.render()
    _criterion(
        5,
        "1000-case differential campaign has zero mismatches in under 60s",
        summary.ok and summary.passed == 1000 and summary.seconds < 60.0,
        f"passed={summary.passed} failed={summary.failed} in {summary.seconds:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Structural laws over the same generated instances


def test_criterion_6_instance_laws():
    violations = 0
    for index in range(1000):
        model = gen_model(case_params(CAMPAIGN_PARAMS, index))
        db = build_database(model)
        sta = db.relations[STA]
        obj_values = {row[0] for row in db.relations[OBJ].tuples}
        if any(value not in obj_values for row in sta.tuples for value in row):
            violations += 1  # every Sta value must appear in Obj
        if not sta.tuples:
            violations += 1  # Sta must be non-empty
    _criterion(6, "Sta-values-in-Obj and Sta-non-empty hold on all 1000 instances",
               violations == 0, f"violations={violations}")


# ---------------------------------------------------------------------------
# 7. Duality cross-checks


def _duality_checks() -> tuple[int, int, str]:
    box_failures = 0
    forall_failures = 0
    digest_parts = []
    fresh = ObjectVar("univ")
    for index in range(200):
        local = case_params(DUALITY_PARAMS, index)
        model = gen_model(local)
        query = gen_query(local, model)
        translator = Translator(model)
        db = build_database(model)
        ctx = VarContext(tuple(query.target))
        relation = sorted(model.relations)[0]

        # Every box answers as the direct engine does; one the translator
        # builds as its dual is that dual, node for node.
        box = translator.translate(Box(relation, query.formula), ctx)
        if not guarded_box(translator._plan(query.formula, ctx)):
            dual = translator.translate(Not(Diamond(relation, Not(query.formula))), ctx)
            if box != dual:
                box_failures += 1
        boxed = evaluate(box, db)
        if boxed != answer_direct(model, ModalQuery(Box(relation, query.formula), query.target)):
            box_failures += 1

        forall = ModalQuery(Forall(fresh, query.formula), query.target)
        algebra = evaluate(translator.translate(forall.formula, ctx), db)
        if algebra != answer_direct(model, forall):
            forall_failures += 1
        digest_parts.append(f"{index}:{len(boxed.tuples)}:{len(algebra.tuples)}")
    return box_failures, forall_failures, ",".join(digest_parts)


def test_criterion_7_duality_cross_checks():
    box_failures, forall_failures, digest = _duality_checks()
    _artifacts["duality"] = digest
    _criterion(
        7,
        "200 box answers match the direct engine, and their duals structurally where the "
        "dual rule applies; 200 forall answers match the direct engine",
        box_failures == 0 and forall_failures == 0,
        f"box={box_failures} forall={forall_failures}",
    )


# ---------------------------------------------------------------------------
# 8. Mutation sensitivity


class BoxAsDiamond(Translator):
    """Deliberately broken: drops the box-to-dual rewrite."""

    def _box(self, relation, body, context):
        return self._diamond(relation, body, context)


class LambdaIgnoresArgument(Translator):
    """Deliberately broken: treats a rigid-argument binding as an exists."""

    def _abstraction(self, var, body, argument, context):
        if isinstance(argument, Relativized):
            return super()._abstraction(var, body, argument, context)
        return self._exists(var, body, context)


def test_criterion_8_mutation_sensitivity():
    outcomes = {}
    for name, factory in (
        ("box rewrite disabled", BoxAsDiamond),
        ("lambda substitution disabled", LambdaIgnoresArgument),
    ):
        summary = run_campaign(CAMPAIGN_PARAMS, 1000, translator_factory=factory)
        outcomes[name] = summary.failed
    _criterion(
        8,
        "each disabled rewrite trips at least one mismatch within 1000 cases",
        all(count >= 1 for count in outcomes.values()),
        str(outcomes),
    )


# ---------------------------------------------------------------------------
# 9. Determinism of criteria 1-7 outputs


def test_criterion_9_determinism(example_model, example_model_path, tmp_path):
    reruns = {
        "map": lambda: _map_output(example_model_path, tmp_path),
        "images": lambda: _query_images(example_model),
        "campaign": lambda: run_campaign(CAMPAIGN_PARAMS, 1000).render(),
        "duality": lambda: _duality_checks()[2],
    }
    mismatched = []
    for name, recompute in reruns.items():
        first = _artifacts.get(name) or recompute()
        second = recompute()
        if first != second:
            mismatched.append(name)
    _criterion(
        9,
        "criteria 1-7 outputs are byte-identical across repeated runs",
        not mismatched,
        f"mismatched={mismatched}",
    )
