"""Exception types shared across the package.

Every error raised deliberately by toposq derives from ToposqError, so callers
can catch the whole family at once. InternalInvariantViolation means a bug;
no validated input raises it.
"""

__all__ = [
    "ToposqError",
    "ParseError",
    "UnsupportedFeatureError",
    "NotHermitianError",
    "NotAProjectionError",
    "DimensionMismatchError",
    "InvalidFamilyError",
    "NotAPartitionError",
    "ScalarOperatorError",
    "MixedDimensionsError",
    "TrivialIntersectionError",
    "NotInContextError",
    "NotIncludedError",
    "PosetMismatchError",
    "NotRestrictionClosedError",
    "NotNormalizedError",
    "NotTransitiveError",
    "InternalInvariantViolation",
]


class ToposqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToposqError):
    """A document or file could not be parsed into the expected shape."""


class UnsupportedFeatureError(ToposqError):
    """Input requests something deliberately out of scope."""


class NotHermitianError(ToposqError):
    """Matrix is not self-adjoint within tolerance."""


class NotAProjectionError(ToposqError):
    """Matrix is not an orthogonal projection within tolerance."""


class DimensionMismatchError(ToposqError):
    """Operands live on spaces of different dimensions."""


class InvalidFamilyError(ToposqError):
    """Spectral family data violates monotonicity or normalization."""


class NotAPartitionError(ToposqError):
    """Atoms fail to form a partition of the identity into >= 2 projections."""


class ScalarOperatorError(ToposqError):
    """Operator is a multiple of the identity and generates no context."""


class MixedDimensionsError(ToposqError):
    """Contexts of different Hilbert space dimensions in one poset."""


class TrivialIntersectionError(ToposqError):
    """Two contexts share only the identity."""


class NotInContextError(ToposqError):
    """Operator does not belong to the algebra spanned by a context's atoms."""


class NotIncludedError(ToposqError):
    """Restriction requested along a pair of contexts that are not nested."""


class PosetMismatchError(ToposqError):
    """Subobjects or arrows over different context posets were combined."""


class NotRestrictionClosedError(ToposqError):
    """A component family is not closed under the restriction maps."""


class NotNormalizedError(ToposqError):
    """Vector does not have unit norm within tolerance."""


class NotTransitiveError(ToposqError):
    """Contexts whose inclusion is not transitive at the tolerance: no
    partial order holds them."""


class InternalInvariantViolation(ToposqError):
    """A consistency guard failed: a bug."""
