"""Exception hierarchy shared across the package."""


class ConjcertError(Exception):
    """Base class for all package errors."""


class UsageError(ConjcertError):
    """Caller violated a documented precondition or passed malformed input."""


class DimensionMismatch(UsageError):
    """Shapes of matrices/vectors are incompatible for the requested operation."""


class SingularMatrixError(ConjcertError):
    """Inversion requested for a matrix with zero determinant."""


class FixedPointError(UsageError):
    """Level j's witness equation (I - Y_j) z = project_j(residual) has no
    solution for this h, which takes a nonzero fixed point of Y_j.  Carries
    ker(I - Y_j) in level coordinates as ``kernel`` and j as ``level``."""

    def __init__(self, message, kernel=None, level=None):
        super().__init__(message)
        self.kernel = kernel
        self.level = level


class CertificateError(ConjcertError):
    """A would-be certificate failed exact re-multiplication."""


class PresentationError(ConjcertError):
    """A central-series presentation is internally inconsistent
    (e.g. a residual fails to descend to the next level)."""


class ClosureCapExceeded(UsageError):
    """Group closure grew past the cap: the input asks for too large a group."""


class TheoremViolation(ConjcertError):
    """A verified witness contradicts a proved structural consequence.
    Raised by the conformance checkers; indicates a bug, never expected."""
