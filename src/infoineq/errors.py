"""Exception types raised across the package."""

from __future__ import annotations


class InfoIneqError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(InfoIneqError):
    """Invalid textual input. `offset` is the character offset into the text."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class DuplicateNameError(ParseError):
    pass


class UnknownVariableError(ParseError):
    pass


class EmptyArgumentListError(ParseError):
    pass


class MissingRelationalOperatorError(ParseError):
    pass


class ConstraintError(InfoIneqError):
    """Invalid constraint declaration.

    Raised by one validator, `parser.validate_constraint`, which both
    `parse_constraint` and `build_constraint_matrix` call.  An empty set in a
    declaration raises `EmptyDeclarationSetError`, which is also an
    `EmptySetError`.
    """


class OverlappingBlocksError(ConstraintError):
    pass


class TooFewBlocksError(ConstraintError):
    pass


class OverlappingGroupsError(ConstraintError):
    pass


class InvalidFactorizationError(ConstraintError):
    pass


class OutOfUniverseError(ConstraintError):
    """A declaration built in code names a variable position outside the universe."""


class EmptySetError(InfoIneqError):
    """A variable set that must be nonempty was empty."""


class EmptyDeclarationSetError(EmptySetError, ConstraintError):
    """A set in a constraint declaration was empty."""


class DimensionMismatchError(InfoIneqError):
    """Vectors or matrices built for different universe sizes were mixed."""


class ProblemTooLargeError(InfoIneqError):
    """A problem beyond the documented size bound, refused before anything is allocated."""


class UnverifiedCertificateError(InfoIneqError):
    """A proof was requested from a certificate that does not verify."""
