"""Kripke models with individual concepts, and the direct truth evaluator.

A model is a finite set of states, one or more named accessibility
relations, a finite object domain, and a set of named concepts — total
functions from states to objects.  The distinguished concept ``id`` is
injective and serves as the external identity of a state.  Constants are
identified with the objects they denote (unique names), so the object
domain doubles as the pool of object-constant symbols.

A ``KripkeModel`` checks these invariants when it is built and is read-only
afterwards, so every model that exists is valid.  Construction also builds
the indexes the evaluator reads: each relation's predecessors by state,
each concept's preimages (value -> the states where the concept takes it),
and the sorted objects.  A relation's successors by state are indexed when
the first ``[R] f`` over it is compiled.

``check_query`` is the one check that a query is made of the constructors
alone, each by its exact class, and that the model declares every symbol it
names.  ``answer_direct`` and the translator both make it before they start,
so both engines raise the same error on the same query.  Scope is checked
once too, by ``ModalQuery``: its target lists exactly the formula's free
variables, so an assignment that binds the target binds every variable read.

``answer_direct`` is the oracle the algebra side is checked against, and
shares no evaluation code with it.  It labels states globally, as the
labelling algorithm of Clarke, Emerson & Sistla (TOPLAS 1986) does: each
subformula yields its truth set, the frozenset of states where it holds,
computed for all states at once from its parts' sets.  The query's formula
is compiled, once, into nested closures ``env -> frozenset`` (Feeley &
Lapalme, "Using closures for code generation", 1987), and the root closure
is asked once per assignment of the target.  ``env`` is a tuple with one slot
per variable in scope: the target's variables take the first slots, and
each binder appends one, so a reused name gets a fresh slot.  An atom over
``@c`` and a variable or constant reads a preimage of ``c``; ``!`` and the
connectives are set operations; ``<R> f`` is the union of the predecessors
of the states in ``f``'s set; ``[R] f`` is read from the smaller side: while
``f`` holds in at most a quarter of the states, it is the states with no
successor plus each predecessor of ``f``'s set whose successors all lie in
it, the counting labelling of Clarke, Emerson & Sistla and of Cleaveland &
Steffen (1993), and otherwise every state less the predecessors of the
states outside that set; ``exists`` and ``forall`` take the union
or the intersection over the domain; a λ whose argument is ``@c`` asks its
body once per preimage of ``c``.  Each modal and quantified closure below
the root, and each that reads no slot, owns a memo of its set, keyed on
the values in the slots its subformula reads, which are fixed at compile
time.  The memos live as long as the closures, one query.  ``satisfies``
compiles and asks once.
"""

from __future__ import annotations

import itertools
import reprlib
from collections import defaultdict
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, get_args

import yaml

from .errors import ModelInvariantError, UnknownConstant, UnknownRelation
from .relalg import RelationInstance
from .syntax import (
    MAX_NESTING,
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
    _refuse_past_limit,
    _set,
    _Value,
    subformulas,
)

ID_CONCEPT = "id"

Assignment = dict  # Var -> str (object value, or concept name for concept vars)


def concept_order(names: Iterable[str]) -> list[str]:
    """Column order of concepts in Sta and in model files: ``id``, then by name."""
    return sorted(names, key=lambda name: (name != ID_CONCEPT, name))


class KripkeModel(_Value):
    """Finite model; states are internal handles.

    Construction stores read-only copies of ``relations``, ``concepts`` and
    each concept's map, then checks the invariants (``validate_model``), so a
    model is valid from the moment it exists and stays valid.  It then builds
    its indexes: each relation's predecessors by state (every state has a
    set, empty or not), each concept's preimages (value -> frozenset of the
    states it takes that value at), the set of states and the sorted object
    tuple.  A relation's successor sets, which ``[R] f`` reads while ``f``
    holds in few states, are added to ``_successors`` by ``_successor_sets``
    when the first such box is compiled, so a model whose queries have no box
    never builds them.  ``_database`` holds the model's database image once
    ``schema.build_database`` has built it.  None of these is a field, so
    equality, ``repr``, ``replace``, pickling and ``dump_model`` see only the
    fields.
    """

    def __init__(
        self,
        states: tuple[str, ...],
        relations: Mapping[str, frozenset[tuple[str, str]]],
        objects: frozenset[str],
        concepts: Mapping[str, Mapping[str, str]],
        object_constants: frozenset[str],
    ):
        concepts = {name: MappingProxyType(dict(values)) for name, values in concepts.items()}
        _set(self, "states", states)
        _set(self, "relations", MappingProxyType(dict(relations)))
        _set(self, "objects", objects)
        _set(self, "concepts", MappingProxyType(concepts))
        _set(self, "object_constants", object_constants)
        validate_model(self)
        predecessors = {}
        for name, pairs in self.relations.items():
            backward = {state: [] for state in self.states}
            for src, dst in pairs:
                backward[dst].append(src)
            predecessors[name] = {dst: frozenset(srcs) for dst, srcs in backward.items()}
        preimages = {}
        for name, values in self.concepts.items():
            by_value = defaultdict(list)
            for state, value in values.items():
                by_value[value].append(state)
            preimages[name] = {value: frozenset(group) for value, group in by_value.items()}
        _set(self, "_predecessors", predecessors)
        _set(self, "_successors", {})  # filled by ``_successor_sets``
        _set(self, "_database", None)  # filled by ``schema.build_database``
        _set(self, "_preimages", preimages)
        _set(self, "_state_set", frozenset(self.states))
        _set(self, "_sorted_objects", tuple(sorted(self.objects)))

    def __reduce__(self):
        # A read-only mapping does not pickle; the dicts it wraps do.
        concepts = {name: dict(values) for name, values in self.concepts.items()}
        fields = (self.states, dict(self.relations), self.objects, concepts, self.object_constants)
        return KripkeModel, fields

    def successors(self, relation: str, state: str) -> tuple[str, ...]:
        """The states a declared ``relation`` leads to from ``state``, sorted.
        It scans the relation's pairs; the evaluator reads the predecessor
        and successor indexes instead."""
        return tuple(sorted(dst for src, dst in self.relations[relation] if src == state))

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


_FORMULAS = frozenset(get_args(Formula))
_TERMS = frozenset(get_args(Term))


def check_query(model: KripkeModel, formula: Formula) -> None:
    """Raise on the first node of ``formula`` that is not exactly a
    constructor, or symbol that ``model`` does not declare.

    A node whose class is not one of the formula or term constructors, a
    subclass of one included, raises ``TypeError`` ("not a formula", "not a
    term").  An object or concept constant, bare, under ``@`` or as a λ
    argument, raises ``UnknownConstant``; a relation name raises
    ``UnknownRelation``.  Every branch is read, evaluated or not.  The walk
    keeps its own stack, so any tree is safe.
    """
    pending = [formula]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind not in _FORMULAS:
            raise TypeError(f"not a formula: {node!r}")
        if (kind is Diamond or kind is Box) and node.relation not in model.relations:
            raise UnknownRelation(f"unknown accessibility relation {node.relation!r}")
        terms = ()
        if kind is Eq or kind is Neq:
            terms = (node.left, node.right)
        elif kind is Exists or kind is Forall:
            terms = (node.var,)
        elif kind is Abstraction:
            terms = (node.var, node.argument)
        for term in terms:
            if type(term) is Relativized:
                term = term.inner
            if type(term) not in _TERMS:
                raise TypeError(f"not a term: {term!r}")
            if type(term) is ObjectConst and term.symbol not in model.object_constants:
                raise UnknownConstant(f"unknown object constant '{term.symbol}'")
            if type(term) is ConceptConst and term.symbol not in model.concepts:
                raise UnknownConstant(f"unknown concept constant {term.symbol!r}")
        pending += reversed(subformulas(node))


# ---------------------------------------------------------------------------
# The compiler

# A compiled formula: env -> the frozenset of states where it holds, where
# ``env`` holds the values of the variables in scope, one slot each.
Compiled = Callable[[tuple], frozenset]

_NOWHERE: frozenset[str] = frozenset()


def _domain(model: KripkeModel, var: Var) -> tuple[str, ...]:
    if type(var) is ObjectVar:
        return model._sorted_objects
    return tuple(model.concepts)


def _term(model: KripkeModel, term: Term, scope: dict):
    """A term's reader ``env -> str``, whether the term is relative, and the
    slots it reads.  A variable or a constant is rigid: the reader gives its
    one value at every state.  ``@t`` is relative: the reader gives the name
    of the concept whose value at each state is the term's."""
    relative = type(term) is Relativized
    read = term.inner if relative else term
    kind = type(read)
    if kind is ConceptVar or (kind is ObjectVar and not relative):
        slot = scope[read]
        return (lambda env: env[slot]), relative, frozenset((slot,))
    if kind is ConceptConst or (kind is ObjectConst and not relative):
        symbol = read.symbol
        return (lambda env: symbol), relative, frozenset()
    raise TypeError(f"not a term: {term!r}")


def _comparison(model, formula, scope, depth, level):
    """The states where the two values are equal (``=``) or differ (``!=``):
    every state or none for two rigid terms; for one relative term, the
    preimage of the rigid one's value under the concept, or what it leaves;
    for two relative terms, the states where the concepts agree or not."""
    left, left_relative, left_reads = _term(model, formula.left, scope)
    right, right_relative, right_reads = _term(model, formula.right, scope)
    equal, reads, everywhere = type(formula) is Eq, left_reads | right_reads, model._state_set
    if not (left_relative or right_relative):
        return (lambda env: everywhere if (left(env) == right(env)) is equal else _NOWHERE), reads
    if left_relative and right_relative:
        concepts, states = model.concepts, model.states

        def pointwise(env):
            first, second = concepts[left(env)], concepts[right(env)]
            return frozenset(state for state in states if (first[state] == second[state]) is equal)

        return pointwise, reads
    concept, value = (left, right) if left_relative else (right, left)
    preimages = model._preimages
    if equal:
        return (lambda env: preimages[concept(env)].get(value(env), _NOWHERE)), reads
    return (lambda env: everywhere - preimages[concept(env)].get(value(env), _NOWHERE)), reads


def _not(model, formula, scope, depth, level):
    body, reads = _compile(model, formula.body, scope, depth, level)
    everywhere, full = model._state_set, len(model.states)

    def negation(env):
        truth = body(env)
        if not truth:
            return everywhere
        return _NOWHERE if len(truth) == full else everywhere - truth

    return negation, reads


def _connective(model, formula, scope, depth, level):
    """``&``, ``|`` and ``->`` as set operations.  An empty or full left side
    stops early: it decides the connective alone, or leaves the right side's
    set as it is."""
    left, left_reads = _compile(model, formula.left, scope, depth, level)
    right, right_reads = _compile(model, formula.right, scope, depth, level)
    everywhere, full, kind = model._state_set, len(model.states), type(formula)
    if kind is And:

        def connective(env):
            truth = left(env)
            if not truth:
                return _NOWHERE
            return right(env) if len(truth) == full else truth & right(env)

    elif kind is Or:

        def connective(env):
            truth = left(env)
            if len(truth) == full:
                return everywhere
            return truth | right(env) if truth else right(env)

    else:

        def connective(env):
            truth = left(env)
            if not truth:
                return everywhere
            return right(env) if len(truth) == full else (everywhere - truth) | right(env)

    return connective, left_reads | right_reads


def _modal(model, formula, scope, depth, level):
    """``<R> f``: the ``R``-predecessors of the states where ``f`` holds.
    ``[R] f``: the states whose ``R``-successors all lie in ``f``'s set.

    The box pays for the smaller side.  While ``f`` holds in at most a
    quarter of the states, it is read from them, as the counting labelling
    of Clarke, Emerson & Sistla (TOPLAS 1986) and Cleaveland & Steffen
    (1993) does: the states with no successor, plus each predecessor of
    ``f``'s set whose successor set is a subset of it.  Otherwise it is
    every state less the predecessors of those where ``f`` fails.  Both are
    exact; on sparse models of out-degree 4 they take equal time at 25-40%
    of the states, and on models of 6 states at about one.  Over a relation
    with no pairs, neither modality asks ``f``."""
    body, reads = _compile(model, formula.body, scope, depth, level)
    everywhere = model._state_set
    if not model.relations[formula.relation]:
        truth = _NOWHERE if type(formula) is Diamond else everywhere
        return (lambda env: truth), frozenset()
    predecessors = model._predecessors[formula.relation].__getitem__
    if type(formula) is Diamond:

        def modal(env):
            return _NOWHERE.union(*map(predecessors, body(env)))

    else:
        successors, sinks = _successor_sets(model, formula.relation)
        small = len(everywhere) // 4

        def modal(env):
            truth = body(env)
            if len(truth) <= small:
                candidates = _NOWHERE.union(*map(predecessors, truth))
                return sinks.union([state for state in candidates if successors[state] <= truth])
            failing = everywhere - truth
            if not failing:
                return everywhere
            return everywhere - _NOWHERE.union(*map(predecessors, failing))

    return modal, reads


def _successor_sets(model: KripkeModel, relation: str) -> tuple[dict, frozenset[str]]:
    """Each state's ``relation``-successors (every state has a set, empty or
    not) and the states with none.  They are built when the first ``[R]``
    over ``relation`` is compiled, and kept with the model."""
    index = model._successors.get(relation)
    if index is None:
        forward = {state: [] for state in model.states}
        for src, dst in model.relations[relation]:
            forward[src].append(dst)
        successors = {src: frozenset(dsts) for src, dsts in forward.items()}
        sinks = frozenset(state for state, after in forward.items() if not after)
        index = model._successors[relation] = successors, sinks
    return index


def _quantifier(model, formula, scope, depth, level):
    """``exists``: the union of the body's sets over the domain, ``forall``:
    their intersection, each stopping once it is full or empty.  The bound
    variable takes a new slot."""
    body, reads = _compile(model, formula.body, {**scope, formula.var: depth}, depth + 1, level)
    domain, everywhere = _domain(model, formula.var), model._state_set
    if type(formula) is Exists:
        start, combine, stop = _NOWHERE, frozenset.union, len(everywhere)
    else:
        start, combine, stop = everywhere, frozenset.intersection, 0

    def quantifier(env):
        truth = start
        for value in domain:
            truth = combine(truth, body((*env, value)))
            if len(truth) == stop:
                break
        return truth

    return quantifier, reads - {depth}


def _abstraction(model, formula, scope, depth, level):
    """``<lam ?y . f>(t)``: ``f`` with ``?y`` bound to ``t``'s value.  A
    relative ``t`` takes one value per group of states, its concept's
    preimages, so ``f`` is asked once per group and kept on that group."""
    argument, relative, argument_reads = _term(model, formula.argument, scope)
    body, reads = _compile(model, formula.body, {**scope, formula.var: depth}, depth + 1, level)
    reads = (reads - {depth}) | argument_reads
    if not relative:
        return (lambda env: body((*env, argument(env)))), reads
    preimages = model._preimages

    def abstraction(env):
        truth = _NOWHERE
        for value, group in preimages[argument(env)].items():
            truth |= body((*env, value)) & group
        return truth

    return abstraction, reads


def _memoised(decide: Compiled, slots: tuple[int, ...]) -> Compiled:
    """``decide`` with a memo of its own, keyed on the values in ``slots``,
    the slots its formula reads.  A call that raises records nothing."""
    memo: dict = {}
    lookup = memo.get
    if not slots:

        def memoised(env):
            truth = lookup(())
            if truth is None:
                truth = memo[()] = decide(env)
            return truth

        return memoised
    values = itemgetter(*slots)

    def memoised(env):
        key = values(env)
        truth = lookup(key)
        if truth is None:
            truth = memo[key] = decide(env)
        return truth

    return memoised


# One rule per formula constructor, looked up by exact class.
_RULES = {
    Eq: _comparison, Neq: _comparison, Not: _not,
    And: _connective, Or: _connective, Implies: _connective,
    Diamond: _modal, Box: _modal, Exists: _quantifier, Forall: _quantifier,
    Abstraction: _abstraction,
}
_MEMOISED = frozenset((Diamond, Box, Exists, Forall))


def _compile(model, formula, scope, depth, level, memoise=True) -> tuple[Compiled, frozenset[int]]:
    """A formula's closure, and the slots it reads.  The closure is memoised
    if the formula is modal or quantified, or reads no slot, so that its set
    is the same all query long.  ``scope`` maps each variable in scope to its
    slot; ``depth`` is the number of slots; ``level`` counts the operators
    above the formula, and one past ``MAX_NESTING`` is refused."""
    if level > MAX_NESTING:
        _refuse_past_limit(level)
    rule = _RULES.get(type(formula))
    if rule is None:
        raise TypeError(f"not a formula: {formula!r}")
    decide, reads = rule(model, formula, scope, depth, level + 1)
    if memoise and (type(formula) in _MEMOISED or not reads):
        decide = _memoised(decide, tuple(sorted(reads)))
    return decide, reads


def compile_formula(model: KripkeModel, formula: Formula, variables: tuple[Var, ...]) -> Compiled:
    """``formula`` as a closure ``env -> frozenset`` of the states where it
    holds, where ``env`` holds the values of ``variables`` in order; they
    must include its free variables.  A formula nested deeper than
    ``MAX_NESTING`` is refused with the parser's ``QuerySyntaxError`` when
    the compiler reaches a node below that many operators.  The formula
    itself is not memoised: a query asks it once per assignment of the
    target."""
    scope = {var: slot for slot, var in enumerate(variables)}
    return _compile(model, formula, scope, len(variables), 0, memoise=False)[0]


def satisfies(model: KripkeModel, state: str, assignment: Assignment, formula: Formula) -> bool:
    """Truth of a formula that has passed ``check_query``, at a state under
    an assignment that binds its free variables: whether the state is in the
    set that the compiled formula gives."""
    label = compile_formula(model, formula, tuple(assignment))
    return state in label(tuple(assignment.values()))


def answer_direct(model: KripkeModel, query: ModalQuery) -> RelationInstance:
    """Answer a query by global labelling: for each assignment of the target,
    the formula's truth set, the states where it holds.

    The result has degree len(target)+1: one column per target variable plus
    the id of each state in that set.  Each subformula's set is computed for
    all states at once from its parts' sets (Clarke, Emerson & Sistla,
    TOPLAS 1986), reading the model's predecessor and preimage indexes.  The
    formula is compiled once, so each modal or quantified subformula's set
    is computed at most once per assignment of its free variables, however many
    target assignments and enclosing steps reach it.  An undeclared symbol
    anywhere in the query raises before any state is read.
    """
    check_query(model, query.formula)
    label = compile_formula(model, query.formula, query.target)
    ids = model.concepts[ID_CONCEPT]
    rows = set()
    for values in itertools.product(*[_domain(model, var) for var in query.target]):
        for state in label(values):
            rows.add((*values, ids[state]))
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
    """Read and parse a model file; a file that cannot be read is a ``ModelInvariantError``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelInvariantError(f"cannot read model file {path}: {exc}") from exc
    return parse_model(text)


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
