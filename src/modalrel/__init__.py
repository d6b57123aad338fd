"""Modal queries over Kripke models, answered directly and via relational algebra.

The package evaluates first-order modal queries two independent ways: a
direct model-theoretic evaluator over the Kripke model, and a compiler to
positional relational algebra over a four-relation database derived from
the model.  The two answers provably coincide; the harness checks this
empirically on random inputs.
"""

from .errors import (
    DegreeError,
    FreeVarMismatch,
    KindError,
    ModalRelError,
    ModelInvariantError,
    QuerySyntaxError,
    UnboundVariable,
    UnknownConstant,
    UnknownRelation,
    UnknownVariable,
    UntranslatableTerm,
)
from .harness import (
    CampaignSummary,
    CorrespondenceReport,
    GenParams,
    check,
    gen_model,
    gen_query,
    run_campaign,
)
from .kripke import (
    ID_CONCEPT,
    KripkeModel,
    answer_direct,
    check_query,
    dump_model,
    load_model,
    model_fingerprint,
    parse_model,
    validate_model,
)
from .relalg import (
    CON,
    OBJ,
    REL,
    SCHEMA_NAMES,
    STA,
    AlgebraExpr,
    BaseRelation,
    Column,
    Constant,
    DatabaseInstance,
    Difference,
    Intersection,
    Product,
    Projection,
    RelationInstance,
    Selection,
    SelectionPredicate,
    Union,
    degree_of,
    evaluate,
    parse_algebra,
    render_algebra,
    to_tsv,
)
from .schema import build_database, concept_index, model_from_database
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
    parse_formula,
    parse_query,
    render_formula,
)
from .translate import Translator, translate_query

__version__ = "0.1.0"
