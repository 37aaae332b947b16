"""Exception hierarchy.

Two families matter to callers: ``SchemaError`` for inputs that are malformed
or do not fit together (CLI exit code 2), and ``MathDomainError`` for inputs
that are well formed but mathematically inadmissible (CLI exit code 3).
"""
from __future__ import annotations


class LiftlabError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(LiftlabError, ValueError):
    """Input is malformed or incompatible with the requested operation."""


class DimensionMismatchError(SchemaError):
    """Operand shapes or sizes do not fit together."""


class IndexOutOfRangeError(SchemaError):
    """A factor label or basis index is outside its valid range."""


class MathDomainError(LiftlabError, ValueError):
    """Well-formed input violates a mathematical precondition."""


class NotHermitianError(MathDomainError):
    """Matrix is not Hermitian within tolerance."""


class NotPSDError(MathDomainError):
    """Matrix has an eigenvalue below the negative tolerance."""


class EigensolverError(MathDomainError):
    """The Hermitian eigensolver did not converge on a finite matrix."""


class NotAStateError(MathDomainError):
    """Operator is not a density operator (PSD with unit trace)."""


class NotUnitalError(MathDomainError):
    """Map does not preserve the identity / columns do not sum to one."""


class NotCPError(MathDomainError):
    """Map is not completely positive."""


class NotFaithfulError(MathDomainError):
    """State is singular where strict positivity is required."""


class NotCompatibleError(MathDomainError):
    """Compound state is inconsistent with the declared marginal or block form."""


class MapNotPositiveError(MathDomainError):
    """Map sends a positive input to a non-positive output."""


class BlockNotPSDError(MathDomainError):
    """A circulant block fails positive semidefiniteness."""


class TraceNotOneError(MathDomainError):
    """Traces do not sum to one."""


class NotNormalizedError(MathDomainError):
    """Vector is not normalized."""


class NegativeEntryError(MathDomainError):
    """Probability data contains a negative entry."""
