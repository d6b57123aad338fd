"""Mapping between models and their four-relation database image.

Sta holds one row per state with one column per concept (the id concept is
always column 1, remaining concepts follow in name order); Rel holds one
``(source-id, target-id, relation-name)`` row per accessibility pair; Con
and Obj enumerate the concept names and the objects.

A model's image is built once, by the first ``build_database`` on it, and
kept with the model, as the model keeps its own indexes.  The image in
turn keeps the hash tables that joins build over its base relations
(``relalg``), so the queries on one model share them.  The tables over one
relation, tested columns and key columns partition it, so the memory an
image keeps is bounded by the model's data, not by the queries answered.
"""

from __future__ import annotations

from .errors import ModelInvariantError
from .kripke import ID_CONCEPT, KripkeModel, concept_order, model_from_data
from .relalg import CON, OBJ, REL, STA, DatabaseInstance, RelationInstance
from .syntax import _set

ConceptIndex = dict  # concept name -> column index in Sta, bijective onto 1..k


def concept_index(model: KripkeModel) -> ConceptIndex:
    """Column index for every concept: ``id`` is 1, the rest follow by name."""
    return {name: i for i, name in enumerate(concept_order(model.concepts), start=1)}


def build_database(model: KripkeModel) -> DatabaseInstance:
    """The database image of a model, built on the first call and kept with
    the model (as ``_database``, which is not a field), so every query on the
    model reads one image and the hash tables it keeps (see
    ``relalg._partners``).  What the image keeps is bounded by the model's data;
    an equal model, a pickled copy or one made by ``replace`` is another
    object and builds its own."""
    db = model._database
    if db is None:
        db = _image(model)
        _set(model, "_database", db)
    return db


def _image(model: KripkeModel) -> DatabaseInstance:
    """The four tables of a model.  Each concept's map is read once, a column
    at a time, and the rows are the columns zipped together."""
    columns = concept_order(model.concepts)
    sta = RelationInstance(
        len(columns),
        frozenset(zip(*[map(model.concepts[name].__getitem__, model.states) for name in columns])),
    )
    ids = model.concepts[ID_CONCEPT]
    rel = RelationInstance(
        3,
        frozenset(
            (ids[src], ids[dst], name) for name, pairs in model.relations.items() for src, dst in pairs
        ),
    )
    con = RelationInstance.of(1, ((name,) for name in model.concepts))
    obj = RelationInstance.of(1, ((value,) for value in model.objects))
    return DatabaseInstance(
        relations={STA: sta, REL: rel, CON: con, OBJ: obj},
        relation_names=frozenset(model.relations),
    )


def model_from_database(db: DatabaseInstance) -> KripkeModel:
    """Rebuild a model from a mapped instance, with fresh state handles.

    Inverse of ``build_database`` up to state-handle renaming: mapping the
    result again yields an identical DatabaseInstance.  The tables are read
    as the fields of a model file, by ``model_from_data``, so tables that no
    model maps to raise ``ModelInvariantError``: this is how an instance is
    checked.
    """
    columns = concept_order(row[0] for row in db.relations[CON].tuples)
    sta = db.relations[STA]
    if sta.degree != len(columns):
        raise ModelInvariantError(
            f"Sta degree {sta.degree} does not match the {len(columns)} concepts in Con"
        )
    relations: dict[str, list[list[str]]] = {name: [] for name in db.relation_names}
    for src, dst, name in db.relations[REL].sorted_rows():
        if name not in relations:
            raise ModelInvariantError(f"Rel row uses undeclared relation name {name!r}")
        relations[name].append([src, dst])
    return model_from_data(
        {
            "objects": [row[0] for row in db.relations[OBJ].tuples],
            "concepts": columns,
            "states": [dict(zip(columns, row)) for row in sta.sorted_rows()],
            "relations": relations,
        }
    )
