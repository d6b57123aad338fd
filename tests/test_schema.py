from __future__ import annotations

import pytest

from modalrel import (
    CON,
    OBJ,
    REL,
    STA,
    DatabaseInstance,
    KripkeModel,
    ModelInvariantError,
    RelationInstance,
    build_database,
    concept_index,
    model_from_database,
    parse_model,
)
from modalrel.harness import GenParams, case_params, gen_model


def single_concept_model(extra_concepts=()):
    concepts = "[id" + "".join(f", {c}" for c in extra_concepts) + "]"
    fields = "{id: a" + "".join(f", {c}: a" for c in extra_concepts) + "}"
    return parse_model(
        f"objects: [a]\nconcepts: {concepts}\nstates: [{fields}]\nrelations: {{R: []}}\n"
    )


# ---------------------------------------------------------------------------
# Concept index


def test_concept_index_id_first_then_names(example_model):
    assert concept_index(example_model) == {"id": 1, "code": 2}


def test_concept_index_single_concept():
    assert concept_index(single_concept_model()) == {"id": 1}


def test_concept_index_orders_other_names_lexicographically():
    model = single_concept_model(("b", "a"))
    index = concept_index(model)
    assert index == {"id": 1, "a": 2, "b": 3}
    # independent check of the tie-break: positions 2.. follow sorted names
    others = sorted(n for n in model.concepts if n != "id")
    assert [index[n] for n in others] == list(range(2, 2 + len(others)))


# ---------------------------------------------------------------------------
# Building the database


def test_build_database_example_tables(example_model):
    db = build_database(example_model)
    assert db.relations[STA] == RelationInstance.of(
        2, [("1", "d"), ("2", "a"), ("3", "b"), ("4", "c")]
    )
    assert db.relations[REL] == RelationInstance.of(
        3, [("1", "2", "COMP"), ("1", "3", "COMP"), ("1", "4", "COMP")]
    )
    assert db.relations[CON] == RelationInstance.of(1, [("id",), ("code",)])
    assert db.relations[OBJ] == RelationInstance.of(
        1, [("1",), ("2",), ("3",), ("4",), ("a",), ("b",), ("c",), ("d",)]
    )
    assert db.relation_names == {"COMP"}


def test_build_database_minimal_model():
    db = build_database(single_concept_model())
    assert db.relations[STA] == RelationInstance.of(1, [("a",)])
    assert db.relations[REL].degree == 3 and not db.relations[REL].tuples


def test_model_with_duplicate_ids_cannot_be_built(example_model):
    with pytest.raises(ModelInvariantError, match="injective"):
        KripkeModel(
            states=example_model.states,
            relations=example_model.relations,
            objects=example_model.objects,
            concepts={
                **example_model.concepts,
                "id": {s: "1" for s in example_model.states},
            },
            object_constants=example_model.object_constants,
        )


def test_rel_row_count_matches_pair_count():
    params = GenParams(seed=5, max_states=5, max_objects=6)
    for i in range(50):
        model = gen_model(case_params(params, i))
        db = build_database(model)
        assert len(db.relations[REL].tuples) == sum(
            len(pairs) for pairs in model.relations.values()
        )
        assert len(db.relations[STA].tuples) == len(model.states)
        assert db.relations[STA].degree == len(model.concepts)
        assert len(db.relations[CON].tuples) == len(model.concepts)
        assert len(db.relations[OBJ].tuples) == len(model.objects)


# ---------------------------------------------------------------------------
# Instance validation: an instance is valid exactly when it reads back as a
# model, so each law is checked through ``model_from_database``.


def test_validate_instance_accepts_mapped_instance(example_db):
    assert build_database(model_from_database(example_db)) == example_db


def _with(db, **replacements):
    return DatabaseInstance(
        relations={**db.relations, **replacements}, relation_names=db.relation_names
    )


def test_validate_instance_flags_empty_sta(example_db):
    broken = _with(example_db, Sta=RelationInstance.of(2, []), Rel=RelationInstance.of(3, []))
    with pytest.raises(ModelInvariantError, match="at least one state"):
        model_from_database(broken)
    # with Rel rows left in, their endpoints name no state
    with pytest.raises(ModelInvariantError, match="unknown state id"):
        model_from_database(_with(example_db, Sta=RelationInstance.of(2, [])))


def test_validate_instance_flags_duplicate_id(example_db):
    rows = set(example_db.relations[STA].tuples) | {("1", "a")}
    broken = _with(example_db, Sta=RelationInstance.of(2, rows))
    with pytest.raises(ModelInvariantError, match="id must be injective"):
        model_from_database(broken)


def test_validate_instance_flags_sta_value_outside_obj(example_db):
    rows = set(example_db.relations[STA].tuples) | {("a", "zz")}
    broken = _with(example_db, Sta=RelationInstance.of(2, rows))
    with pytest.raises(ModelInvariantError, match="'zz', which is not an object of the model"):
        model_from_database(broken)


def test_validate_instance_flags_bad_rel_rows(example_db):
    rel = example_db.relations[REL].tuples
    bad_endpoint = _with(example_db, Rel=RelationInstance.of(3, rel | {("1", "9", "COMP")}))
    with pytest.raises(ModelInvariantError, match="unknown state id '9'"):
        model_from_database(bad_endpoint)
    bad_name = _with(example_db, Rel=RelationInstance.of(3, rel | {("1", "2", "NOPE")}))
    with pytest.raises(ModelInvariantError, match="undeclared relation name 'NOPE'"):
        model_from_database(bad_name)


def test_generated_instances_always_validate():
    params = GenParams(seed=11)
    for i in range(200):
        db = build_database(gen_model(case_params(params, i)))
        assert build_database(model_from_database(db)) == db


# ---------------------------------------------------------------------------
# Round trip


def test_model_round_trips_through_database(example_model, example_db):
    recovered = model_from_database(example_db)
    assert build_database(recovered) == example_db
    # recovery preserves everything except possibly the state handles
    assert recovered.objects == example_model.objects
    assert set(recovered.concepts) == set(example_model.concepts)


def test_generated_models_round_trip():
    params = GenParams(seed=23, max_states=5, max_objects=7)
    for i in range(50):
        db = build_database(gen_model(case_params(params, i)))
        assert build_database(model_from_database(db)) == db


def test_model_from_database_requires_id_concept(example_db):
    # Sta's degree matches Con each time, so the model format's rule is what fires
    codes = RelationInstance.of(1, [(code,) for _, code in example_db.relations[STA].tuples])
    for names, sta in (
        (["code", "kind"], example_db.relations[STA]),
        (["code"], codes),
    ):
        broken = _with(example_db, Con=RelationInstance.of(1, [(n,) for n in names]), Sta=sta)
        with pytest.raises(ModelInvariantError, match="a concept named 'id' is required"):
            model_from_database(broken)


def test_model_from_database_rejects_sta_degree_unlike_con(example_db):
    broken = _with(example_db, Con=RelationInstance.of(1, [("id",), ("code",), ("kind",)]))
    with pytest.raises(ModelInvariantError, match="Sta degree 2 does not match the 3 concepts"):
        model_from_database(broken)


def test_model_from_database_rejects_unknown_rel_endpoint(example_db):
    rows = set(example_db.relations[REL].tuples) | {("1", "9", "COMP")}
    broken = _with(example_db, Rel=RelationInstance.of(3, rows))
    with pytest.raises(ModelInvariantError, match="unknown state id"):
        model_from_database(broken)
