"""Randomized differential testing of the two query engines.

Generates small models and well-formed queries from a seed, answers each
query both by direct evaluation and through the algebra translation, and
reports any disagreement.  Failing cases are greedily shrunk before being
reported.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator

from .errors import ModalRelError
from .kripke import (
    ID_CONCEPT,
    KripkeModel,
    answer_direct,
    model_fingerprint,
)
from .relalg import RelationInstance, evaluate
from .schema import build_database
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
    free_vars,
    render_formula,
    subformulas,
)
from .translate import Translator

_MASK64 = (1 << 64) - 1


def _mix(seed: int, salt: int) -> int:
    """Deterministic 64-bit stream derivation, independent of hash seeds."""
    x = (seed * 6364136223846793005 + salt * 1442695040888963407 + 1) & _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    return x


@dataclass(frozen=True)
class GenParams:
    """A fuzz campaign's seed, bounds and toggle; the defaults are the acceptance campaign's."""

    seed: int = 0
    max_states: int = 6
    max_objects: int = 8
    max_concepts: int = 3
    max_relations: int = 2
    max_depth: int = 4
    max_free_vars: int = 2
    allow_concept_vars: bool = False

    def __post_init__(self):
        for bound in fields(self):
            value = getattr(self, bound.name)
            if bound.name.startswith("max_") and value < 1:
                raise ValueError(f"{bound.name} must be at least 1, got {value}")
        if self.max_objects < self.max_states:
            raise ValueError("max_objects must be at least max_states (ids are objects)")
        # Each unused target variable adds one conjunction above the body.
        if self.max_depth + self.max_free_vars > MAX_NESTING:
            raise ValueError(
                f"max_depth + max_free_vars must be at most {MAX_NESTING}, "
                f"got {self.max_depth + self.max_free_vars}"
            )


_OBJECT_POOL = "123456789abcdefghijklmnopqrstuvwxyz"


def _object_token(i: int) -> str:
    if i < len(_OBJECT_POOL):
        return _OBJECT_POOL[i]
    return f"o{i}"


def gen_model(params: GenParams) -> KripkeModel:
    """A random valid model, deterministic in the seed."""
    rng = random.Random(_mix(params.seed, 0x6D6F64))
    n_states = rng.randint(1, params.max_states)
    n_objects = rng.randint(n_states, params.max_objects)
    objects = tuple(_object_token(i) for i in range(n_objects))
    states = tuple(f"s{i}" for i in range(n_states))

    n_concepts = rng.randint(1, params.max_concepts)
    concept_names = [ID_CONCEPT] + [f"c{i}" for i in range(1, n_concepts)]
    concepts: dict[str, dict[str, str]] = {
        ID_CONCEPT: dict(zip(states, rng.sample(objects, n_states)))
    }
    for name in concept_names[1:]:
        concepts[name] = {state: rng.choice(objects) for state in states}

    n_relations = rng.randint(1, params.max_relations)
    relations: dict[str, frozenset[tuple[str, str]]] = {}
    for r in range(1, n_relations + 1):
        pairs = {
            (src, dst)
            for src in states
            for dst in states
            if rng.random() < 0.35
        }
        relations[f"R{r}"] = frozenset(pairs)

    return KripkeModel(
        states=states,
        relations=relations,
        objects=frozenset(objects),
        concepts=concepts,
        object_constants=frozenset(objects),
    )


class _QueryBuilder:
    """Grows one random well-kinded query for a given model signature."""

    # Total variables in scope at any point; keeps the cross products on the
    # algebra side desk-sized.
    MAX_SCOPE = 3

    def __init__(self, rng: random.Random, params: GenParams, model: KripkeModel):
        self.rng = rng
        self.params = params
        self.constants = sorted(model.object_constants)
        self.concept_names = sorted(model.concepts)
        self.relation_names = sorted(model.relations)
        self._binders = 0

    def build(self) -> ModalQuery:
        n_free = self.rng.randint(0, self.params.max_free_vars)
        target = tuple(ObjectVar(f"x{i}") for i in range(n_free))
        body = self.formula(self.params.max_depth, list(target))
        used = set(free_vars(body))
        for var in target:
            if var not in used:
                body = And(body, Eq(var, var))
        return ModalQuery(body, target)

    def formula(self, depth: int, scope: list[Var]) -> Formula:
        if depth <= 0:
            return self.atom(scope)
        choices: list[tuple[str, float]] = [
            ("atom", 3.0),
            ("not", 1.5),
            ("and", 1.5),
            ("or", 1.5),
            ("implies", 0.75),
            ("diamond", 1.5),
            ("box", 1.5),
        ]
        if len(scope) < self.MAX_SCOPE:
            choices += [("exists", 1.0), ("forall", 1.0), ("lambda", 1.25)]
        kind = self.rng.choices([c for c, _ in choices], [w for _, w in choices])[0]
        if kind == "atom":
            return self.atom(scope)
        if kind == "not":
            return Not(self.formula(depth - 1, scope))
        if kind in ("and", "or", "implies"):
            left = self.formula(depth - 1, scope)
            right = self.formula(depth - 1, scope)
            return {"and": And, "or": Or, "implies": Implies}[kind](left, right)
        if kind in ("diamond", "box"):
            relation = self.rng.choice(self.relation_names)
            body = self.formula(depth - 1, scope)
            return (Diamond if kind == "diamond" else Box)(relation, body)
        if kind in ("exists", "forall"):
            var = self.binder_var(concept=self.rng.random() < 0.25)
            body = self.formula(depth - 1, scope + [var])
            return (Exists if kind == "exists" else Forall)(var, body)
        return self.abstraction(depth, scope)

    def abstraction(self, depth: int, scope: list[Var]) -> Formula:
        concept_binder = self.rng.random() < 0.3
        var = self.binder_var(concept=concept_binder)
        if concept_binder:
            arguments: list[Term] = [ConceptConst(self.rng.choice(self.concept_names))]
            if self.params.allow_concept_vars:
                arguments += [v for v in scope if isinstance(v, ConceptVar)]
        else:
            arguments = [ObjectConst(self.rng.choice(self.constants))]
            arguments += [v for v in scope if isinstance(v, ObjectVar)]
            arguments.append(
                Relativized(ConceptConst(self.rng.choice(self.concept_names)))
            )
        argument = self.rng.choice(arguments)
        body = self.formula(depth - 1, scope + [var])
        return Abstraction(var, body, argument)

    def binder_var(self, concept: bool) -> Var:
        self._binders += 1
        name = f"q{self._binders}"
        return ConceptVar(name) if concept else ObjectVar(name)

    def atom(self, scope: list[Var]) -> Formula:
        left = self.term(scope)
        right = self.term(scope)
        return Eq(left, right) if self.rng.random() < 0.5 else Neq(left, right)

    def term(self, scope: list[Var]) -> Term:
        options: list[Term] = [
            ObjectConst(self.rng.choice(self.constants)),
            Relativized(ConceptConst(self.rng.choice(self.concept_names))),
        ]
        object_vars = [v for v in scope if isinstance(v, ObjectVar)]
        if object_vars:
            options.append(self.rng.choice(object_vars))
        if self.params.allow_concept_vars:
            concept_vars = [v for v in scope if isinstance(v, ConceptVar)]
            if concept_vars:
                options.append(Relativized(self.rng.choice(concept_vars)))
        return self.rng.choice(options)


def gen_query(params: GenParams, model: KripkeModel) -> ModalQuery:
    """A random query over the model's signature, deterministic in the seed.

    The result is always well-kinded.  Unless ``allow_concept_vars`` is set
    it is also translatable; with the toggle on it may relativize a concept
    variable, which only the direct evaluator supports.
    """
    rng = random.Random(_mix(params.seed, 0x717279))
    return _QueryBuilder(rng, params, model).build()


def constructor_histogram(formula: Formula) -> Counter:
    """Occurrence counts of each formula constructor."""
    counts: Counter = Counter()
    pending = [formula]
    while pending:
        node = pending.pop()
        counts[type(node).__name__] += 1
        pending += subformulas(node)
    return counts


# ---------------------------------------------------------------------------
# Differential checking

TranslatorFactory = Callable[[KripkeModel], Translator]


@dataclass
class CorrespondenceReport:
    """Outcome of answering one query through both engines.

    The model and query are kept as given; their printable forms are read
    only when a failure is reported, so they are computed on demand.
    """

    model: KripkeModel
    query: ModalQuery
    direct: RelationInstance | None
    algebra: RelationInstance | None
    equal: bool
    witness: tuple[str, ...] | None = None
    witness_side: str | None = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def model_fingerprint(self) -> str:
        return model_fingerprint(self.model)

    @property
    def query_text(self) -> str:
        return render_formula(self.query.formula)

    @property
    def target(self) -> tuple[str, ...]:
        return tuple(str(v) for v in self.query.target)


def check(
    model: KripkeModel,
    query: ModalQuery,
    translator: Translator | None = None,
) -> CorrespondenceReport:
    """Answer a query via both engines and compare the results exactly."""
    translator = translator or Translator(model)
    report = CorrespondenceReport(model, query, direct=None, algebra=None, equal=False)
    start = time.perf_counter()
    try:
        report.direct = answer_direct(model, query)
        db = build_database(model)
        expr = translator.translate_query(query)
        report.algebra = evaluate(expr, db)
    except ModalRelError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        report.seconds = time.perf_counter() - start
        return report
    report.equal = report.direct == report.algebra
    if not report.equal:
        direct_only = report.direct.tuples - report.algebra.tuples
        if direct_only:
            report.witness = min(direct_only)
            report.witness_side = "direct only"
        else:
            report.witness = min(report.algebra.tuples - report.direct.tuples)
            report.witness_side = "algebra only"
    report.seconds = time.perf_counter() - start
    return report


@dataclass
class CampaignSummary:
    params: GenParams
    cases: int
    passed: int = 0
    failed: int = 0
    untranslatable: int = 0
    first_failure_case: int | None = None
    first_failure: CorrespondenceReport | None = None
    seconds: float = 0.0
    case_seconds: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        """Deterministic line-oriented summary (no timings)."""
        lines = [
            f"seed: {self.params.seed}",
            f"cases: {self.cases}",
            f"passed: {self.passed}",
            f"failed: {self.failed}",
            f"untranslatable (direct engine only): {self.untranslatable}",
            f"status: {'OK' if self.ok else 'MISMATCH'}",
        ]
        if self.first_failure is not None:
            failure = self.first_failure
            lines.append(f"first failure: case {self.first_failure_case}")
            lines.append(f"  model: {failure.model_fingerprint}")
            target = ", ".join(failure.target) or "(none)"
            lines.append(f"  query: {failure.query_text}  [target: {target}]")
            if failure.error is not None:
                lines.append(f"  error: {failure.error}")
            if failure.witness is not None:
                row = "(" + ", ".join(failure.witness) + ")"
                lines.append(f"  witness: {row} present in {failure.witness_side}")
            if failure.direct is not None and failure.algebra is not None:
                lines.append(
                    f"  rows: direct={len(failure.direct.tuples)}"
                    f" algebra={len(failure.algebra.tuples)}"
                )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        def rows(inst: RelationInstance | None):
            return None if inst is None else [list(r) for r in inst.sorted_rows()]

        payload = {
            "seed": self.params.seed,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "untranslatable": self.untranslatable,
            "status": "OK" if self.ok else "MISMATCH",
            "seconds": self.seconds,
            "first_failure": None,
        }
        if self.first_failure is not None:
            failure = self.first_failure
            payload["first_failure"] = {
                "case": self.first_failure_case,
                "model": failure.model_fingerprint,
                "query": failure.query_text,
                "target": list(failure.target),
                "error": failure.error,
                "witness": list(failure.witness) if failure.witness else None,
                "witness_side": failure.witness_side,
                "direct": rows(failure.direct),
                "algebra": rows(failure.algebra),
            }
        return json.dumps(payload, indent=2) + "\n"


def case_params(params: GenParams, case_index: int) -> GenParams:
    """Per-case parameters: same bounds, a seed derived from (seed, index)."""
    return replace(params, seed=_mix(params.seed, case_index))


def run_campaign(
    params: GenParams,
    cases: int,
    translator_factory: TranslatorFactory | None = None,
) -> CampaignSummary:
    """Run `cases` independent differential checks.

    Deterministic in the seed.  Untranslatable queries (possible only with
    ``allow_concept_vars``) are answered by the direct engine alone and
    counted separately.  The campaign stops at the first genuine mismatch,
    which is shrunk greedily.
    """
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    factory = translator_factory or Translator
    summary = CampaignSummary(params=params, cases=cases)
    start = time.perf_counter()
    for index in range(cases):
        local = case_params(params, index)
        model = gen_model(local)
        query = gen_query(local, model)
        report = check(model, query, factory(model))
        summary.case_seconds.append(report.seconds)
        if report.equal:
            summary.passed += 1
            continue
        if report.error is not None and report.error.startswith("UntranslatableTerm"):
            summary.untranslatable += 1
            continue
        summary.failed += 1
        small_model, small_query = shrink_case(model, query, factory)
        summary.first_failure_case = index
        summary.first_failure = check(small_model, small_query, factory(small_model))
        break
    summary.seconds = time.perf_counter() - start
    return summary


# ---------------------------------------------------------------------------
# Shrinking


def _drop_state(model: KripkeModel, state: str) -> KripkeModel:
    return replace(
        model,
        states=tuple(s for s in model.states if s != state),
        relations={
            name: frozenset(p for p in pairs if state not in p)
            for name, pairs in model.relations.items()
        },
        concepts={
            name: {s: v for s, v in values.items() if s != state}
            for name, values in model.concepts.items()
        },
    )


def _drop_edge(model: KripkeModel, name: str, pair: tuple[str, str]) -> KripkeModel:
    return replace(model, relations={**model.relations, name: model.relations[name] - {pair}})


def _requery(formula: Formula) -> ModalQuery:
    return ModalQuery(formula, tuple(free_vars(formula)))


Case = tuple[KripkeModel, ModalQuery]


def _state_drops(model: KripkeModel, query: ModalQuery) -> Iterator[Case]:
    if len(model.states) > 1:
        for state in model.states:
            yield _drop_state(model, state), query


def _edge_drops(model: KripkeModel, query: ModalQuery) -> Iterator[Case]:
    for name in sorted(model.relations):
        for pair in sorted(model.relations[name]):
            yield _drop_edge(model, name, pair), query


def _subformula_picks(model: KripkeModel, query: ModalQuery) -> Iterator[Case]:
    for child in subformulas(query.formula):
        yield model, _requery(child)


def shrink_case(
    model: KripkeModel,
    query: ModalQuery,
    factory: TranslatorFactory,
) -> Case:
    """Greedily shrink a failing case: states, then edges, then the formula.

    Each phase takes the first candidate that still fails and restarts,
    until no candidate of that phase does.  Only genuine mismatches are
    preserved (a shrink step that turns the mismatch into an error is
    rejected).
    """

    def still_fails(m: KripkeModel, q: ModalQuery) -> bool:
        report = check(m, q, factory(m))
        return not report.equal and report.error is None

    for candidates in (_state_drops, _edge_drops, _subformula_picks):
        while smaller := next((c for c in candidates(model, query) if still_fails(*c)), None):
            model, query = smaller
    return model, query
