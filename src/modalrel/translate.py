"""Compilation of modal queries to relational algebra.

Column convention: a (sub)formula translated under a context of n variables
yields an expression of degree n+1 — columns 1..n hold the context
variables' values in context order and column n+1 holds the id of the
satisfying state.  Atoms establish the convention by crossing the domain
relations of the context variables with Sta and projecting the variable
columns plus Sta's id column; every other construct preserves it.  Binders
prepend their variable to the context, so a bound variable always occupies
column 1 of the subquery and is projected away afterwards.

The context is an environment, not a rewrite of the formula: each variable
in scope is bound either to a column or to the rigid term a λ bound it to.
A column binding is kept as its depth counted from the outermost column, so
later binders do not move it, and a binder that reuses a name shadows the
outer binding for its body alone (de Bruijn's nameless variables).  A λ
over a rigid argument (an object or concept constant, or a variable already
in scope) adds no column: its variable resolves to what the argument
resolves to.  ``@%g`` has a Sta column only when ``%g`` is λ-bound to a
concept constant.

``translate_query`` checks the query's symbols against the model first
(``kripke.check_query``, the same check the direct engine makes), so the
translation itself assumes every constant and relation name is declared.

``f -> g``, ``[R] f``, ``forall v . f`` and ``<lam ?y . f>(@c)`` are
translated through their definitions, as ``!f | g``, ``!<R> !f``,
``!exists v . !f`` and ``exists ?y . ?y = @c & f``, so the plan is built
from atoms, negation, conjunction, disjunction, ``<R>`` and ``exists``
alone.

Under an empty context there is nothing to cross: atoms select from Sta
directly and negation reads Sta's id column as its universe.  No rewrite
follows translation, so the tree emitted is the plan evaluated.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping

from .errors import UnknownVariable, UntranslatableTerm
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
    is_variable,
)

# A variable's binding: the depth of its column, or the constant a λ bound it to.
Binding = int | ObjectConst | ConceptConst


class VarContext:
    """Variables in scope, each bound to a column or to a rigid λ argument.

    ``variables`` lists the column variables innermost first: column i
    (1-based) holds ``variables[i-1]``.  A name may repeat; its innermost
    binding wins.  A column binding is stored as its depth counted from the
    outermost column, so prepending a variable does not move it.
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
        try:
            return self._bindings[var]
        except KeyError:
            raise UnknownVariable(f"variable {var} is not in scope") from None

    def prepend(self, var: Var) -> VarContext:
        return VarContext((var,) + self.variables, {**self._bindings, var: len(self) + 1})

    def bind(self, var: Var, argument: Term) -> VarContext:
        """Bind ``var`` to a constant, or to what a variable argument is bound to."""
        binding = self.lookup(argument) if is_variable(argument) else argument
        return VarContext(self.variables, {**self._bindings, var: binding})


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
        context = VarContext(tuple(query.target))
        return self.translate(query.formula, context)

    def translate(self, formula: Formula, context: VarContext) -> AlgebraExpr:
        """Plan of a formula that has passed ``check_query``, under ``context``."""
        match formula:
            case Eq(left, right):
                return self._atom(left, right, "=", context)
            case Neq(left, right):
                return self._atom(left, right, "!=", context)
            case Not(body):
                return self._negation(body, context)
            case And(left, right):
                return Intersection(self.translate(left, context), self.translate(right, context))
            case Or(left, right):
                return Union(self.translate(left, context), self.translate(right, context))
            case Implies(left, right):
                return self.translate(Or(Not(left), right), context)
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

    # -- terms and variable lists --------------------------------------

    def term_ref(self, term: Term, context: VarContext) -> Column | Constant:
        """Attribute position or literal for a term of a checked formula.

        In a product of the context's domain relations with Sta, context
        variables occupy columns 1..n and the concept columns of Sta start
        at n+1, so a relativized concept lands on n plus its Sta column.
        A variable λ-bound to a constant resolves to that constant.
        """
        match term:
            case ObjectConst(symbol) | ConceptConst(symbol):
                return Constant(symbol)
            case ObjectVar() | ConceptVar():
                binding = context.lookup(term)
                if isinstance(binding, int):
                    return Column(len(context) - binding + 1)
                return self.term_ref(binding, context)
            case Relativized(inner):
                return Column(len(context) + self._concept_column(inner, context))
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

    def domain_product(self, context: VarContext) -> AlgebraExpr:
        """Cross product of one domain relation per variable of a non-empty context."""
        factors = [
            BaseRelation(OBJ if isinstance(var, ObjectVar) else CON)
            for var in context.variables
        ]
        return reduce(Product, factors)

    def _under_context(self, states: AlgebraExpr, context: VarContext) -> AlgebraExpr:
        """``states`` with the context's domain columns crossed in front."""
        if not len(context):
            return states
        return Product(self.domain_product(context), states)

    # -- formula constructs --------------------------------------------

    def _atom(self, left: Term, right: Term, op: str, context: VarContext) -> AlgebraExpr:
        n = len(context)
        predicate = SelectionPredicate(
            self.term_ref(left, context), op, self.term_ref(right, context)
        )
        base = self._under_context(BaseRelation(STA), context)
        return Projection(tuple(range(1, n + 2)), Selection(predicate, base))

    def _negation(self, body: Formula, context: VarContext) -> AlgebraExpr:
        universe = self._under_context(Projection((1,), BaseRelation(STA)), context)
        return Difference(universe, self.translate(body, context))

    def _diamond(self, relation: str, body: Formula, context: VarContext) -> AlgebraExpr:
        n = len(context)
        # Columns of body × Rel: 1..n vars, n+1 body state, n+2 source,
        # n+3 target, n+4 relation name.  Keep rows whose body state is the
        # target of a matching edge, then report the source state.
        crossed = Product(self.translate(body, context), BaseRelation(REL))
        selected = Selection(
            SelectionPredicate(Column(n + 4), "=", Constant(relation)),
            Selection(SelectionPredicate(Column(n + 1), "=", Column(n + 3)), crossed),
        )
        return Projection(tuple(range(1, n + 1)) + (n + 2,), selected)

    def _box(self, relation: str, body: Formula, context: VarContext) -> AlgebraExpr:
        # A box is definitionally the dual of the diamond.
        return self.translate(Not(Diamond(relation, Not(body))), context)

    def _exists(self, var: Var, body: Formula, context: VarContext) -> AlgebraExpr:
        n = len(context)
        inner = self.translate(body, context.prepend(var))
        return Projection(tuple(range(2, n + 3)), inner)

    def _forall(self, var: Var, body: Formula, context: VarContext) -> AlgebraExpr:
        # A universal is definitionally the dual of the existential.
        return self.translate(Not(Exists(var, Not(body))), context)

    def _abstraction(
        self, var: Var, body: Formula, argument: Term, context: VarContext
    ) -> AlgebraExpr:
        if not isinstance(argument, Relativized):
            # Rigid argument: its value does not depend on the state, so the
            # variable resolves to it.
            return self.translate(body, context.bind(var, argument))
        # A concept has exactly one value per state, so binding the variable
        # to it is definitionally an existential with an equation.
        return self.translate(Exists(var, And(Eq(var, argument), body)), context)


def translate_query(query: ModalQuery, model: KripkeModel) -> AlgebraExpr:
    """Check a query's symbols against a model, then translate it."""
    return Translator(model).translate_query(query)
