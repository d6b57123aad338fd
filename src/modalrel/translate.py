"""Compilation of modal queries to relational algebra.

Column convention: each subformula is translated over its own free
variables, in the safe-range style of Abiteboul, Hull & Vianu
(*Foundations of Databases*, 1995, ch. 5).  Its plan has one column per
column-bound free variable, outermost binder last, and then a column for
the id of the satisfying state.  Only where the rules below need it is a
plan crossed with the domain relation (``Obj`` or ``Con``) of a variable
it does not use:

- an atom crosses ``Sta`` with the domains of its own variables only;
- ``!f`` takes its universe over the domains of ``f``'s variables;
- ``f & g``, where one side is an ``=`` or ``!=`` atom whose column
  variables the other side's plan has, is a selection on that plan (joined
  with ``Sta`` on the state first if the atom reads a concept other than
  ``id``, which is the plan's state column), so the atom crosses in no
  domain of its own;
- any other ``f & g`` is an intersection when both sides have the same
  variables, and otherwise a join on the state and the shared variables (a
  chain of selections over a product, which ``relalg`` runs as a hash join);
- ``f | g`` pads each side to the variables of both;
- ``exists v`` projects ``v``'s column away, and leaves a plan that has no
  ``v`` column as it is (no domain is empty: ``Obj`` holds every ``Sta``
  value and ``Con`` holds ``id``).

``translate(formula, context)`` pads the result once, at the top, to the
whole context: degree len(context)+1, columns in context order.  So a
target variable the formula never reads is crossed in there, and nowhere
else.

The context is an environment, not a rewrite of the formula: each variable
in scope is bound either to a column or to the rigid term a λ bound it to.
A column binding is kept as its depth counted from the outermost column, so
later binders do not move it, and a binder that reuses a name shadows the
outer binding for its body alone (de Bruijn's nameless variables).  A
plan's columns are named by these depths, so a shared variable is a shared
depth, and the innermost binder's column, where a plan has one, is first.
A λ over a rigid argument (an object or concept constant, or a variable
already in scope) adds no column: its variable resolves to what the
argument resolves to.  ``@%g`` has a Sta column only when ``%g`` is
λ-bound to a concept constant.

``translate_query`` checks the query's symbols against the model first
(``kripke.check_query``, the same check the direct engine makes), so the
translation itself assumes every constant and relation name is declared.
It starts from a context of the query's target, which ``ModalQuery`` has
checked is exactly the formula's free variables, so every lookup finds a
binding.

Each plan records, as it is built, the column variables it range-restricts
(``Plan.restricted``): ``v = t`` restricts ``v`` when ``t`` is not a column
variable; ``&`` restricts what either side does, ``|`` what both do, ``<R>
f`` what ``f`` does, ``exists v . f`` what ``f`` does less ``v``, and a λ
what its definition does; ``!``, ``!=``, ``->``, ``[R]`` and ``forall``
restrict nothing.

``[R] f`` takes one of two forms.  When ``f`` has a column variable and its
plan range-restricts every one of them (``guarded_box``), the box is built
from ``F``, the plan of ``f``, and the ``R``-edges ``Rr``, with no universe
(the guarded fragment of Andréka, van Benthem & Németi, *J. Phil. Logic*
1998): a state with no ``R``-successor satisfies it under every value of
the variables, and any other state under the values ``<R> f`` gives it,
less those for which one of its successors does not satisfy ``f``.  The
plan of ``<R> f`` and its edges are each read twice, so the plan shares
them (``relalg`` plans are DAGs).  Any other box, whose ``F`` is closed or
already as large as the universe, is its dual ``!<R> !f``, built over the
one plan of ``f``.

``f -> g``, ``forall v . f`` and ``<lam ?y . f>(@c)`` are translated through
their definitions, as ``!f | g``, ``!exists v . !f`` and ``exists ?y . ?y =
@c & f``, so apart from the guarded box the plan is built from atoms,
negation, conjunction, disjunction, ``<R>`` and ``exists`` alone.  No
rewrite follows translation, so the plan emitted is the plan evaluated.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping, NamedTuple

from .errors import UntranslatableTerm
from .kripke import KripkeModel, ModalQuery, check_query
from .relalg import (
    CON,
    OBJ,
    REL,
    STA,
    AlgebraExpr,
    BaseRelation,
    Column,
    Constant,
    Difference,
    Intersection,
    Product,
    Projection,
    Selection,
    SelectionPredicate,
    Union,
)
from .schema import concept_index
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
    Neq,
    Not,
    ObjectConst,
    ObjectVar,
    Or,
    Relativized,
    Term,
    Var,
    _refuse_past_limit,
    formula_depth,
    is_variable,
)

# A variable's binding: the depth of its column, or the constant a λ bound it to.
Binding = int | ObjectConst | ConceptConst


class VarContext:
    """Variables in scope, each bound to a column or to a rigid λ argument.

    ``variables`` lists the column variables innermost first: column i
    (1-based) of the padded answer holds ``variables[i-1]``.  A name may
    repeat; its innermost binding wins.  A column binding is stored as its
    depth counted from the outermost column, so prepending a variable does
    not move it.
    """

    def __init__(
        self, variables: tuple[Var, ...] = (), bindings: Mapping[Var, Binding] | None = None
    ):
        self.variables = variables
        if bindings is None:
            bindings = {var: depth for depth, var in enumerate(reversed(variables), 1)}
        self._bindings = bindings

    def __len__(self) -> int:
        return len(self.variables)

    def lookup(self, var: Var) -> Binding:
        return self._bindings[var]

    def domain(self, depth: int) -> BaseRelation:
        """The domain relation of the column variable at ``depth``."""
        var = self.variables[len(self) - depth]
        return BaseRelation(OBJ if isinstance(var, ObjectVar) else CON)

    def cross(self, depths, expr: AlgebraExpr) -> AlgebraExpr:
        """``expr`` with the domains of the variables at ``depths`` crossed in front."""
        return reduce(Product, [*map(self.domain, depths), expr])

    def prepend(self, var: Var) -> VarContext:
        return VarContext((var,) + self.variables, {**self._bindings, var: len(self) + 1})

    def bind(self, var: Var, argument: Term) -> VarContext:
        """Bind ``var`` to a constant, or to what a variable argument is bound to."""
        binding = self.lookup(argument) if is_variable(argument) else argument
        return VarContext(self.variables, {**self._bindings, var: binding})


class Plan(NamedTuple):
    """A subformula's expression, the depths of its free variables in column
    order (innermost binder, greatest depth, first, then the state), and the
    depths it range-restricts: every row takes their values from an atom's
    other side, not from a domain (the safe-range rules of Abiteboul, Hull &
    Vianu, ch. 5.4)."""

    expr: AlgebraExpr
    columns: tuple[int, ...]
    restricted: frozenset[int] = frozenset()


def _in_column_order(depths) -> tuple[int, ...]:
    return tuple(sorted(set(depths), reverse=True))


def _equal(left: int, right: int) -> SelectionPredicate:
    return SelectionPredicate(Column(left), "=", Column(right))


def _column(term: Term, context: VarContext) -> int | None:
    """The depth of ``term``'s column, if it is a column-bound variable."""
    if is_variable(term) and isinstance(binding := context.lookup(term), int):
        return binding
    return None


def _atom_depths(atom: Eq | Neq, context: VarContext) -> tuple[list[int], frozenset[int]]:
    """The depths of an atom's column-bound variables, one per side that is
    one, and those it range-restricts: ``v = t`` restricts ``v`` when ``t``
    is not a column variable."""
    sides = (_column(atom.left, context), _column(atom.right, context))
    depths = [depth for depth in sides if depth is not None]
    restricts = len(depths) == 1 and isinstance(atom, Eq)
    return depths, frozenset(depths) if restricts else frozenset()


def guarded_box(plan: Plan) -> bool:
    """Whether ``[R] f``, where ``plan`` is ``f``'s, takes the guarded form:
    ``f`` has a column variable and range-restricts each one.  Otherwise it
    is ``!<R> !f``."""
    return bool(plan.columns) and set(plan.columns) <= plan.restricted


class Translator:
    """Compiles formulas to algebra expressions for one model."""

    def __init__(self, model: KripkeModel):
        self._model = model
        self._concepts = concept_index(model)

    @classmethod
    def for_model(cls, model: KripkeModel) -> Translator:
        """``cls(model)``; ``perfbench/workloads.py`` calls it by this name."""
        return cls(model)

    def translate_query(self, query: ModalQuery) -> AlgebraExpr:
        """Check a whole query's symbols, then translate it; the result has
        degree len(target)+1."""
        check_query(self._model, query.formula)
        # ``ModalQuery`` has bounded the formula's depth already.
        return self._translate(query.formula, VarContext(tuple(query.target)))

    def translate(self, formula: Formula, context: VarContext) -> AlgebraExpr:
        """Plan of a formula that has passed ``check_query``, under a
        ``context`` that binds its free variables: degree len(context)+1,
        one column per context variable in context order, then the state.
        A formula nested deeper than ``MAX_NESTING`` is refused with the
        parser's ``QuerySyntaxError`` before any plan is built."""
        _refuse_past_limit(formula_depth(formula))
        return self._translate(formula, context)

    def _translate(self, formula: Formula, context: VarContext) -> AlgebraExpr:
        return self._pad(self._plan(formula, context), tuple(range(len(context), 0, -1)), context)

    def _plan(self, formula: Formula, context: VarContext) -> Plan:
        """Plan of ``formula`` over its own free variables."""
        match formula:
            case Eq() | Neq():
                return self._atom(formula, context)
            case Not(body):
                return self._negation(body, context)
            case And(left, right):
                return self._conjunction(left, right, context)
            case Or(left, right):
                return self._disjunction(left, right, context)
            case Implies(left, right):
                return self._plan(Or(Not(left), right), context)
            case Diamond(relation, body):
                return self._diamond(relation, body, context)
            case Box(relation, body):
                return self._box(relation, body, context)
            case Exists(var, body):
                return self._exists(var, body, context)
            case Forall(var, body):
                return self._forall(var, body, context)
            case Abstraction(var, body, argument):
                return self._abstraction(var, body, argument, context)
        raise TypeError(f"not a formula: {formula!r}")

    def _pad(self, plan: Plan, columns: tuple[int, ...], context: VarContext) -> AlgebraExpr:
        """``plan`` over ``columns``, a superset of its own in column order:
        the domain of each missing variable is crossed in front, then the
        columns are put in order."""
        missing = [depth for depth in columns if depth not in plan.columns]
        if not missing:
            return plan.expr
        crossed = context.cross(missing, plan.expr)
        position = {depth: i for i, depth in enumerate(missing + list(plan.columns), 1)}
        indices = tuple(position[depth] for depth in columns) + (len(columns) + 1,)
        if indices == tuple(range(1, len(indices) + 1)):
            return crossed
        return Projection(indices, crossed)

    # -- terms -----------------------------------------------------------

    def _operand(
        self, term: Term, context: VarContext, columns: tuple[int, ...], sta: int
    ) -> Column | Constant:
        """Attribute position or literal for a term of an atom read in rows
        whose first columns hold the variables at ``columns``, in that order,
        and whose Sta columns follow column ``sta``."""
        match term:
            case ObjectConst(symbol) | ConceptConst(symbol):
                return Constant(symbol)
            case ObjectVar() | ConceptVar():
                binding = context.lookup(term)
                if isinstance(binding, int):
                    return Column(columns.index(binding) + 1)
                return Constant(binding.symbol)
            case Relativized(inner):
                return Column(sta + self._concept_column(inner, context))
        raise TypeError(f"not a term: {term!r}")

    def _concept_column(self, concept: Term, context: VarContext) -> int:
        """Sta column of a concept constant, or of a variable λ-bound to one."""
        bound = context.lookup(concept) if isinstance(concept, ConceptVar) else concept
        if not isinstance(bound, ConceptConst):
            raise UntranslatableTerm(
                f"@{concept} has no algebra translation: the concept a variable denotes "
                "has no fixed column (the direct evaluator still supports it)"
            )
        return self._concepts[bound.symbol]

    # -- formula constructs --------------------------------------------

    def _predicate(
        self, atom: Eq | Neq, context: VarContext, columns: tuple[int, ...], sta: int
    ) -> SelectionPredicate:
        """The comparison of ``atom``, read as ``_operand`` reads its terms."""
        return SelectionPredicate(
            self._operand(atom.left, context, columns, sta),
            "=" if isinstance(atom, Eq) else "!=",
            self._operand(atom.right, context, columns, sta),
        )

    def _atom(self, atom: Eq | Neq, context: VarContext) -> Plan:
        depths, restricted = _atom_depths(atom, context)
        columns = _in_column_order(depths)
        base = context.cross(columns, BaseRelation(STA))
        selected = Selection(self._predicate(atom, context, columns, len(columns)), base)
        return Plan(Projection(tuple(range(1, len(columns) + 2)), selected), columns, restricted)

    def _filter(self, plan: Plan, atom: Eq | Neq, context: VarContext) -> Plan | None:
        """``plan`` restricted to the rows that satisfy ``atom``: a selection,
        on ``plan`` joined with Sta on the state when the atom reads a
        concept other than ``id``.  None if a column variable of ``atom`` is
        not a column of ``plan``."""
        depths, restricted = _atom_depths(atom, context)
        if not set(plan.columns).issuperset(depths):
            return None
        k = len(plan.columns)
        restricted |= plan.restricted
        read = {
            self._concept_column(term.inner, context)
            for term in (atom.left, atom.right)
            if isinstance(term, Relativized)
        }
        if read <= {1}:
            # Sta's column 1 is the id, which the plan's state column k+1 holds.
            predicate = self._predicate(atom, context, plan.columns, k)
            return Plan(Selection(predicate, plan.expr), plan.columns, restricted)
        # Columns of plan × Sta: 1..k variables, k+1 the state, then Sta.
        joined = Selection(_equal(k + 1, k + 2), Product(plan.expr, BaseRelation(STA)))
        selected = Selection(self._predicate(atom, context, plan.columns, k + 1), joined)
        return Plan(Projection(tuple(range(1, k + 2)), selected), plan.columns, restricted)

    def _negation(self, body: Formula, context: VarContext) -> Plan:
        return self._complement(self._plan(body, context), context)

    def _complement(self, plan: Plan, context: VarContext) -> Plan:
        """``plan``'s complement in the universe of its variables' domains and Sta."""
        universe = context.cross(plan.columns, Projection((1,), BaseRelation(STA)))
        return Plan(Difference(universe, plan.expr), plan.columns)

    def _conjunction(self, left: Formula, right: Formula, context: VarContext) -> Plan:
        # An atom whose column variables the other side's plan already has
        # is a selection on that plan (the safe-range rule for a comparison).
        second = None
        if isinstance(left, (Eq, Neq)):
            second = self._plan(right, context)
            if filtered := self._filter(second, left, context):
                return filtered
        first = self._plan(left, context)
        if isinstance(right, (Eq, Neq)) and (filtered := self._filter(first, right, context)):
            return filtered
        if second is None:
            second = self._plan(right, context)
        restricted = first.restricted | second.restricted
        if first.columns == second.columns:
            return Plan(Intersection(first.expr, second.expr), first.columns, restricted)
        # Columns of first × second: 1..k first's variables, k+1 its state,
        # then second's variables and its state.  Join on the state and on
        # every shared variable, keeping one column per variable.
        k = len(first.columns)
        state = k + len(second.columns) + 2
        joined = Selection(_equal(k + 1, state), Product(first.expr, second.expr))
        position = {depth: i for i, depth in enumerate(first.columns, 1)}
        for i, depth in enumerate(second.columns, k + 2):
            if depth in position:
                joined = Selection(_equal(position[depth], i), joined)
            else:
                position[depth] = i
        columns = _in_column_order(position)
        indices = tuple(position[depth] for depth in columns) + (k + 1,)
        return Plan(Projection(indices, joined), columns, restricted)

    def _disjunction(self, left: Formula, right: Formula, context: VarContext) -> Plan:
        first, second = self._plan(left, context), self._plan(right, context)
        columns = _in_column_order(first.columns + second.columns)
        return Plan(
            Union(self._pad(first, columns, context), self._pad(second, columns, context)),
            columns,
            first.restricted & second.restricted,
        )

    def _diamond(self, relation: str, body: Formula, context: VarContext) -> Plan:
        return self._step(relation, self._plan(body, context))

    def _step(self, relation: str, inner: Plan) -> Plan:
        """``<R>`` of ``inner``: the states with an ``R``-edge into one of its rows."""
        k = len(inner.columns)
        # Columns of body × Rel: 1..k vars, k+1 body state, k+2 source,
        # k+3 target, k+4 relation name.  Keep rows whose body state is the
        # target of a matching edge, then report the source state.
        crossed = Product(inner.expr, BaseRelation(REL))
        selected = Selection(
            SelectionPredicate(Column(k + 4), "=", Constant(relation)),
            Selection(_equal(k + 1, k + 3), crossed),
        )
        indices = tuple(range(1, k + 1)) + (k + 2,)
        return Plan(Projection(indices, selected), inner.columns, inner.restricted)

    def _box(self, relation: str, body: Formula, context: VarContext) -> Plan:
        inner = self._plan(body, context)
        if guarded_box(inner):
            return self._guarded_box(relation, inner, context)
        # The dual of the diamond, over the one plan of the body.
        return self._complement(self._step(relation, self._complement(inner, context)), context)

    def _guarded_box(self, relation: str, inner: Plan, context: VarContext) -> Plan:
        """``[R]`` of ``inner`` over its own variables x̄, with no universe:
        ``(D(x̄) × (π₁Sta − π₁Rr)) ∪ (C − π(x̄, s)(W − G))``.

        ``Rr`` is ``R``'s edges.  ``E`` pairs each row of ``inner`` with the
        edges into its state; ``C = <R> f`` are its candidates (x̄, s); ``W``
        pairs each candidate with every successor t of s, and ``G`` keeps
        the pairs whose (x̄, t) satisfies ``f``.  ``E``, ``C`` and ``Rr`` are
        shared nodes of the plan.  ``relalg`` runs ``C − π(W − G)`` as one
        division, which never builds ``W``.
        """
        k = len(inner.columns)
        variables = tuple(range(1, k + 1))
        edges = Selection(SelectionPredicate(Column(3), "=", Constant(relation)), BaseRelation(REL))
        # Columns of F × Rr: 1..k vars, k+1 body state, k+2 source, k+3 target.
        paired = Selection(_equal(k + 1, k + 3), Product(inner.expr, edges))
        candidates = Projection(variables + (k + 2,), paired)
        # Columns of C × Rr: 1..k vars, k+1 candidate state, k+2 source, k+3 target.
        successors = Projection(
            variables + (k + 1, k + 3),
            Selection(_equal(k + 1, k + 2), Product(candidates, edges)),
        )
        satisfied = Projection(variables + (k + 2, k + 3), paired)
        failing = Projection(variables + (k + 1,), Difference(successors, satisfied))
        no_successor = Difference(Projection((1,), BaseRelation(STA)), Projection((1,), edges))
        vacuous = context.cross(inner.columns, no_successor)
        return Plan(Union(vacuous, Difference(candidates, failing)), inner.columns)

    def _exists(self, var: Var, body: Formula, context: VarContext) -> Plan:
        scope = context.prepend(var)
        inner = self._plan(body, scope)
        # The bound variable has the greatest depth: column 1, if the body uses it.
        if inner.columns[:1] != (len(scope),):
            return inner
        k = len(inner.columns)
        projected = Projection(tuple(range(2, k + 2)), inner.expr)
        return Plan(projected, inner.columns[1:], inner.restricted - {len(scope)})

    def _forall(self, var: Var, body: Formula, context: VarContext) -> Plan:
        # A universal is definitionally the dual of the existential.
        return self._plan(Not(Exists(var, Not(body))), context)

    def _abstraction(self, var: Var, body: Formula, argument: Term, context: VarContext) -> Plan:
        if not isinstance(argument, Relativized):
            # Rigid argument: its value does not depend on the state, so the
            # variable resolves to it.
            return self._plan(body, context.bind(var, argument))
        # A concept has exactly one value per state, so binding the variable
        # to it is definitionally an existential with an equation.
        return self._plan(Exists(var, And(Eq(var, argument), body)), context)


def translate_query(query: ModalQuery, model: KripkeModel) -> AlgebraExpr:
    """Check a query's symbols against a model, then translate it."""
    return Translator(model).translate_query(query)
