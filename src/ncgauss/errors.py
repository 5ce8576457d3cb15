"""Exception types raised by validation, construction, and classification."""


class NCGaussError(ValueError):
    """Base class for every error raised by this package."""


class DimensionError(NCGaussError):
    """Matrix or parameter dimensions are invalid or mutually inconsistent."""


class MatrixStructureError(NCGaussError):
    """A required structural property (symmetry, skewness, hermiticity) fails."""


class NotPositiveDefiniteError(NCGaussError):
    """A covariance matrix is not positive-definite."""


class DomainError(NCGaussError):
    """Parameters fall outside the admissible domain (theta*eta >= 1, R >= 1, ...)."""


class FormulaDomainError(DomainError):
    """A closed form leaves floating-point range. Kept for callers that catch it: ncgauss no longer raises it."""
