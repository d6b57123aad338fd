"""Exception types shared across the package."""

from __future__ import annotations


class ModalRelError(Exception):
    """Base class for every error this package raises on purpose.

    ``exit_code`` is the documented command-line exit code for the error:
    2 for query errors unless a subclass overrides it.
    """

    exit_code = 2


class PositionedError(ModalRelError):
    """Error tied to a 1-based line:column position in some input text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class QuerySyntaxError(PositionedError):
    """Query text failed to tokenize or parse."""


class KindError(PositionedError):
    """A term of the wrong kind (object vs concept) was used."""


class FreeVarMismatch(ModalRelError):
    """Target list of a query does not match the formula's free variables."""


class UnknownConstant(ModalRelError):
    """A constant symbol is not part of the model being queried."""


class UnknownRelation(ModalRelError):
    """An accessibility or database relation name is not declared."""


class ModelInvariantError(ModalRelError):
    """A model (or model file) violates a structural invariant."""

    exit_code = 3


class UntranslatableTerm(ModalRelError):
    """The term has no algebra translation (it is still directly evaluable)."""

    exit_code = 4


class DegreeError(ModalRelError):
    """An algebra expression violates degree (arity) constraints."""

    def __init__(self, message: str, expected: int | None = None, found: int | None = None):
        self.expected = expected
        self.found = found
        if expected is not None:
            message = f"{message} (expected {expected}, found {found})"
        super().__init__(message)
