"""Kripke models with individual concepts, and the direct truth evaluator.

A model is a finite set of states, one or more named accessibility
relations, a finite object domain, and a set of named concepts — total
functions from states to objects.  The distinguished concept ``id`` is
injective and serves as the external identity of a state.  Constants are
identified with the objects they denote (unique names), so the object
domain doubles as the pool of object-constant symbols.

A ``KripkeModel`` checks these invariants when it is built and is read-only
afterwards, so every model that exists is valid.  Construction also indexes
each relation's successors by state and sorts the objects once, so a modal
step or a quantifier reads a prepared tuple instead of scanning the model.

``check_query`` is the one check that the model declares every symbol a query
names.  ``answer_direct`` and the translator both make it before they start,
so both engines raise the same error on the same query.  Scope is checked
once too, by ``ModalQuery``: its target lists exactly the formula's free
variables, so an assignment that binds the target binds every variable read.

``answer_direct`` is the oracle the algebra side is checked against, and
shares no evaluation code with it.  It evaluates top-down, and keeps, for one
query, the truth of every modal and quantified subformula it has decided,
keyed on the subformula, the state and the values of that subformula's free
variables: the labelling algorithm of Clarke, Emerson & Sistla (TOPLAS 1986),
computed on demand.  The query's formula itself is not kept, since no
(state, target values) pair asks for it twice.
"""

from __future__ import annotations

import itertools
import reprlib
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import yaml

from .errors import ModelInvariantError, UnknownConstant, UnknownRelation
from .relalg import RelationInstance
from .syntax import (
    Abstraction,
    And,
    Box,
    ConceptConst,
    ConceptVar,
    Diamond,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    ModalQuery,
    Neq,
    Not,
    ObjectConst,
    ObjectVar,
    Or,
    Relativized,
    Term,
    Var,
    free_vars,
    subformulas,
)

ID_CONCEPT = "id"

Assignment = dict  # Var -> str (object value, or concept name for concept vars)


def concept_order(names: Iterable[str]) -> list[str]:
    """Column order of concepts in Sta and in model files: ``id``, then by name."""
    return sorted(names, key=lambda name: (name != ID_CONCEPT, name))


@dataclass(frozen=True)
class KripkeModel:
    """Finite model; states are internal handles.

    Construction stores read-only copies of ``relations``, ``concepts`` and
    each concept's map, then checks the invariants (``validate_model``), so a
    model is valid from the moment it exists and stays valid.  It then builds
    the successor index and the sorted object tuple; they are not fields, so
    equality, ``repr``, ``dataclasses.replace`` and ``dump_model`` see only
    the fields.
    """

    states: tuple[str, ...]
    relations: Mapping[str, frozenset[tuple[str, str]]]
    objects: frozenset[str]
    concepts: Mapping[str, Mapping[str, str]]
    object_constants: frozenset[str]

    def __post_init__(self):
        concepts = {name: MappingProxyType(dict(values)) for name, values in self.concepts.items()}
        object.__setattr__(self, "concepts", MappingProxyType(concepts))
        object.__setattr__(self, "relations", MappingProxyType(dict(self.relations)))
        validate_model(self)
        index = {}
        for name, pairs in self.relations.items():
            by_state = defaultdict(list)
            for src, dst in pairs:
                by_state[src].append(dst)
            index[name] = {src: tuple(sorted(dsts)) for src, dsts in by_state.items()}
        object.__setattr__(self, "_successors", index)
        object.__setattr__(self, "_sorted_objects", tuple(sorted(self.objects)))

    def successors(self, relation: str, state: str) -> tuple[str, ...]:
        """The states a declared ``relation`` leads to from ``state``, sorted."""
        return self._successors[relation].get(state, ())

    def id_of(self, state: str) -> str:
        return self.concepts[ID_CONCEPT][state]


def validate_model(model: KripkeModel) -> None:
    """Raise ModelInvariantError on the first structural violation found."""
    if not model.states:
        raise ModelInvariantError("a model needs at least one state")
    if len(set(model.states)) != len(model.states):
        raise ModelInvariantError("state handles must be distinct")
    if not model.objects:
        raise ModelInvariantError("a model needs at least one object")
    if not model.relations:
        raise ModelInvariantError("a model needs at least one accessibility relation")
    if ID_CONCEPT not in model.concepts:
        raise ModelInvariantError(f"a concept named {ID_CONCEPT!r} is required")
    state_set = set(model.states)
    for name, pairs in model.relations.items():
        for src, dst in pairs:
            if src not in state_set or dst not in state_set:
                raise ModelInvariantError(
                    f"relation {name!r} references unknown state in pair ({src!r}, {dst!r})"
                )
    for name, values in model.concepts.items():
        if set(values) != state_set:
            raise ModelInvariantError(f"concept {name!r} must be total on the states")
        for state, value in values.items():
            if value not in model.objects:
                raise ModelInvariantError(
                    f"concept {name!r} maps state {state!r} to {value!r}, "
                    "which is not an object of the model"
                )
    id_values = list(model.concepts[ID_CONCEPT].values())
    if len(set(id_values)) != len(id_values):
        duplicate = sorted(v for v in set(id_values) if id_values.count(v) > 1)[0]
        raise ModelInvariantError(f"duplicate id value {duplicate!r}: id must be injective")
    if not model.object_constants <= model.objects:
        raise ModelInvariantError("object constants must denote objects of the model")
    # A TSV cell cannot hold a tab or a line break; a quoted constant (an object
    # in a query, a relation name in every <R> plan) cannot hold a quote; and
    # output is UTF-8, which has no encoding for a lone surrogate.
    for kind, names, forbidden in (
        ("object", model.objects, "\t\n\r'"),
        ("concept name", model.concepts, "\t\n\r"),
        ("relation name", model.relations, "\t\n\r'"),
    ):
        for name in sorted(names):
            if any(char in name for char in forbidden):
                raise ModelInvariantError(f"{kind} {name!r} may not contain any of {forbidden!r}")
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise ModelInvariantError(
                    f"{kind} {name!r} may not contain a lone surrogate, which UTF-8 cannot encode"
                ) from None


# ---------------------------------------------------------------------------
# The query's symbols


def check_query(model: KripkeModel, formula: Formula) -> None:
    """Raise on the first symbol of ``formula`` that ``model`` does not declare.

    An object or concept constant, bare, under ``@`` or as a λ argument,
    raises ``UnknownConstant``; a relation name raises ``UnknownRelation``.
    Every branch is read, evaluated or not.  The walk keeps its own stack,
    so any tree is safe.
    """
    pending = [formula]
    while pending:
        node = pending.pop()
        terms = ()
        match node:
            case Diamond(relation, _) | Box(relation, _) if relation not in model.relations:
                raise UnknownRelation(f"unknown accessibility relation {relation!r}")
            case Eq(left, right) | Neq(left, right):
                terms = (left, right)
            case Abstraction(_, _, argument):
                terms = (argument,)
        for term in terms:
            if isinstance(term, Relativized):
                term = term.inner
            if isinstance(term, ObjectConst) and term.symbol not in model.object_constants:
                raise UnknownConstant(f"unknown object constant '{term.symbol}'")
            if isinstance(term, ConceptConst) and term.symbol not in model.concepts:
                raise UnknownConstant(f"unknown concept constant {term.symbol!r}")
        pending += reversed(subformulas(node))


# ---------------------------------------------------------------------------
# Term evaluation and truth


def term_eval(model: KripkeModel, assignment: Assignment, term: Term, state: str) -> str:
    """Value of a term at a state: an object value, or a concept name for
    concept terms.  ``term`` belongs to a formula that has passed
    ``check_query``, and ``assignment`` binds its variables."""
    match term:
        case ObjectConst(symbol) | ConceptConst(symbol):
            return symbol
        case ObjectVar() | ConceptVar():
            return assignment[term]
        case Relativized(inner):
            return model.concepts[term_eval(model, assignment, inner, state)][state]
    raise TypeError(f"not a term: {term!r}")


def _domain(model: KripkeModel, var: Var) -> Iterable[str]:
    if isinstance(var, ObjectVar):
        return model._sorted_objects
    return model.concepts


class Memo:
    """One query's record of decided modal and quantified subformulas.

    ``truth`` maps (subformula identity, state, values of the subformula's
    free variables) to its truth; ``free`` maps a subformula's identity to its
    free variables.  Identity is a sound key only while the subformulas stay
    alive, so a memo serves one query, whose formula outlives it.  ``root``,
    when given, is that query's formula: it is asked once per state and
    values of the target, so it is never recorded.
    """

    def __init__(self, root: Formula | None = None):
        self.truth: dict[tuple, bool] = {}
        self.free: dict[int, tuple[Var, ...]] = {}
        self.root = root


def _memo_key(memo: Memo, formula: Formula, state: str, assignment: Assignment) -> tuple:
    """The memo key of ``formula`` at ``state`` under ``assignment``."""
    free = memo.free.get(id(formula))
    if free is None:
        free = memo.free[id(formula)] = tuple(free_vars(formula))
    return (id(formula), state, tuple([assignment[var] for var in free]))


def satisfies(
    model: KripkeModel,
    state: str,
    assignment: Assignment,
    formula: Formula,
    memo: Memo | None = None,
) -> bool:
    """Truth of a formula that has passed ``check_query``, at a state under an
    assignment that binds its free variables.

    Quantifiers range over the model's objects (object variables) or concept
    names (concept variables) — the same domain at every state.  A diamond
    asks for some successor satisfying the body, a box for all successors.
    Abstraction binds its variable to the argument's value at the current
    state before evaluating the body.

    With a ``memo``, the truth of each modal and quantified subformula other
    than the memo's root is looked up before it is evaluated and recorded
    after.  Evaluation order and short-circuiting are the same either way,
    and a subformula that raises records nothing.
    """
    key = None
    if (
        memo is not None
        and isinstance(formula, (Diamond, Box, Exists, Forall))
        and formula is not memo.root
    ):
        key = _memo_key(memo, formula, state, assignment)
        truth = memo.truth.get(key)
        if truth is not None:
            return truth
    match formula:
        case Eq(left, right):
            return term_eval(model, assignment, left, state) == term_eval(
                model, assignment, right, state
            )
        case Neq(left, right):
            return term_eval(model, assignment, left, state) != term_eval(
                model, assignment, right, state
            )
        case Not(body):
            return not satisfies(model, state, assignment, body, memo)
        case And(left, right):
            return satisfies(model, state, assignment, left, memo) and satisfies(
                model, state, assignment, right, memo
            )
        case Or(left, right):
            return satisfies(model, state, assignment, left, memo) or satisfies(
                model, state, assignment, right, memo
            )
        case Implies(left, right):
            return (not satisfies(model, state, assignment, left, memo)) or satisfies(
                model, state, assignment, right, memo
            )
        case Diamond(relation, body):
            truth = any(
                satisfies(model, nxt, assignment, body, memo)
                for nxt in model.successors(relation, state)
            )
        case Box(relation, body):
            truth = all(
                satisfies(model, nxt, assignment, body, memo)
                for nxt in model.successors(relation, state)
            )
        case Exists(var, body):
            truth = any(
                satisfies(model, state, {**assignment, var: value}, body, memo)
                for value in _domain(model, var)
            )
        case Forall(var, body):
            truth = all(
                satisfies(model, state, {**assignment, var: value}, body, memo)
                for value in _domain(model, var)
            )
        case Abstraction(var, body, argument):
            value = term_eval(model, assignment, argument, state)
            return satisfies(model, state, {**assignment, var: value}, body, memo)
        case _:
            raise TypeError(f"not a formula: {formula!r}")
    if key is not None:
        memo.truth[key] = truth
    return truth


def answer_direct(model: KripkeModel, query: ModalQuery) -> RelationInstance:
    """Answer a query by enumerating assignments and states.

    The result has degree len(target)+1: one column per target variable plus
    the id of the satisfying state.  One ``Memo`` serves the whole query, so
    a modal or quantified subformula is decided at most once per state and
    values of its free variables (Clarke, Emerson & Sistla, TOPLAS 1986),
    however many target assignments and enclosing steps reach it.  The query's
    own formula is not memoised: each (values, state) pair asks for it once.
    An undeclared symbol anywhere in the query raises before any state is read.
    """
    check_query(model, query.formula)
    domains = [_domain(model, var) for var in query.target]
    memo = Memo(query.formula)
    rows = set()
    for values in itertools.product(*domains):
        assignment = dict(zip(query.target, values))
        for state in model.states:
            if satisfies(model, state, assignment, query.formula, memo):
                rows.add((*values, model.id_of(state)))
    return RelationInstance(len(query.target) + 1, frozenset(rows))


# ---------------------------------------------------------------------------
# Model files


def _unreadable(exc: ValueError) -> ModelInvariantError:
    return ModelInvariantError(f"model file holds a value that cannot be read: {exc}")


def _scalar(value) -> str:
    if isinstance(value, str):
        return value
    rejected = isinstance(value, bool) or value is None or isinstance(value, (list, dict))
    try:
        text = reprlib.repr(value) if rejected else str(value)
    except ValueError as exc:
        # str() and repr() of an int stop at the interpreter's limit on decimal
        # digits (4,300 by default); a hexadecimal YAML int reads past it.
        raise _unreadable(exc) from None
    if rejected:
        raise ModelInvariantError(f"model values must be strings or numbers, got {text}")
    return text


def parse_model(text: str) -> KripkeModel:
    """Parse the structured-text model format (see ``model_from_data``)."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ModelInvariantError(f"model file is not valid YAML: {exc}") from exc
    except RecursionError:
        # PyYAML composes nested collections by recursion: a few hundred levels fill the stack.
        raise ModelInvariantError("model file is nested too deeply") from None
    except ValueError as exc:
        # PyYAML's int() of a decimal past the interpreter's digit limit, or a date
        # that does not exist, such as 2020-13-01.
        raise _unreadable(exc) from None
    return model_from_data(data)


def model_from_data(data) -> KripkeModel:
    """Build a model from the fields of the model format.

    Fields: ``objects`` (list), ``concepts`` (list containing ``id``),
    ``states`` (list of records, one field per concept), ``relations``
    (map name -> list of [source-id, target-id] pairs, referencing states
    by their id value).  States get the handles ``s0``, ``s1``, ... in
    list order.
    """
    if not isinstance(data, Mapping):
        raise ModelInvariantError("model file must be a mapping")
    for field in ("objects", "concepts", "states", "relations"):
        if field not in data:
            raise ModelInvariantError(f"model file is missing the {field!r} field")

    if not isinstance(data["objects"], list):
        raise ModelInvariantError("'objects' must be a list")
    objects = frozenset(_scalar(x) for x in data["objects"])

    if not isinstance(data["concepts"], list):
        raise ModelInvariantError("'concepts' must be a list")
    concept_names = [_scalar(x) for x in data["concepts"]]
    if len(set(concept_names)) != len(concept_names):
        raise ModelInvariantError("concept names must be distinct")

    if not isinstance(data["states"], list):
        raise ModelInvariantError("'states' must be a list")
    states = tuple(f"s{i}" for i in range(len(data["states"])))
    concepts: dict[str, dict[str, str]] = {name: {} for name in concept_names}
    for handle, record in zip(states, data["states"]):
        if not isinstance(record, Mapping):
            raise ModelInvariantError("each state must be a record of concept values")
        keys = {_scalar(k) for k in record}
        if len(keys) != len(record):
            raise ModelInvariantError(
                f"state record fields must be distinct as strings, got {reprlib.repr(list(record))}"
            )
        if keys != set(concept_names):
            raise ModelInvariantError(
                f"state record fields {reprlib.repr(sorted(keys))} do not match concepts "
                f"{reprlib.repr(sorted(concept_names))}"
            )
        for key, value in record.items():
            concepts[_scalar(key)][handle] = _scalar(value)

    if ID_CONCEPT not in concepts:
        raise ModelInvariantError(f"a concept named {ID_CONCEPT!r} is required")
    id_to_handle: dict[str, str] = {}
    for handle in states:
        id_value = concepts[ID_CONCEPT][handle]
        if id_value in id_to_handle:
            raise ModelInvariantError(f"duplicate id value {id_value!r}: id must be injective")
        id_to_handle[id_value] = handle

    if not isinstance(data["relations"], Mapping):
        raise ModelInvariantError("'relations' must be a map")
    relations: dict[str, frozenset[tuple[str, str]]] = {}
    for raw_name, raw_pairs in data["relations"].items():
        name = _scalar(raw_name)
        if name in relations:
            raise ModelInvariantError(f"relation names must be distinct, got {name!r} twice")
        if raw_pairs is not None and not isinstance(raw_pairs, list):
            raise ModelInvariantError(f"relation {name!r} must map to a list of pairs")
        pairs = set()
        for raw_pair in raw_pairs or []:
            if not isinstance(raw_pair, list) or len(raw_pair) != 2:
                raise ModelInvariantError(
                    f"relation {name!r} pairs must be [source-id, target-id] lists"
                )
            src, dst = (_scalar(x) for x in raw_pair)
            for endpoint in (src, dst):
                if endpoint not in id_to_handle:
                    raise ModelInvariantError(
                        f"relation {name!r} references unknown state id {endpoint!r}"
                    )
            pairs.add((id_to_handle[src], id_to_handle[dst]))
        relations[name] = frozenset(pairs)

    return KripkeModel(
        states=states,
        relations=relations,
        objects=objects,
        concepts=concepts,
        object_constants=objects,
    )


def load_model(path) -> KripkeModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def dump_model(model: KripkeModel) -> str:
    """Canonical text form of a model; ``parse_model`` round-trips it."""
    columns = concept_order(model.concepts)
    data = {
        "objects": sorted(model.objects),
        "concepts": columns,
        "states": [
            {name: model.concepts[name][state] for name in columns}
            for state in model.states
        ],
        "relations": {
            name: sorted(
                [model.id_of(src), model.id_of(dst)] for src, dst in model.relations[name]
            )
            for name in sorted(model.relations)
        },
    }
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=None)


def model_fingerprint(model: KripkeModel) -> str:
    """Short stable digest of a model's canonical text form."""
    import hashlib  # only here, so that loading the package does not load OpenSSL

    return hashlib.sha256(dump_model(model).encode("utf-8")).hexdigest()[:12]
