"""Exception types shared across the package."""


class SingularKernelError(ValueError):
    """Kernel matrix is numerically singular (or not positive definite)."""


class NegativeDiagonalError(ValueError):
    """A kernel diagonal entry is negative, so the kernel is not positive semidefinite."""


class SingularPivotError(ValueError):
    """A Cholesky pivot fell below the numerical floor."""


class StaleRowError(RuntimeError):
    """A gain was requested for a row whose factor entries are out of date."""


class EnumerationLimitError(ValueError):
    """Exhaustive enumeration was requested beyond the hard size guard."""


class SelectionDriftError(RuntimeError):
    """Two coupled factors disagree on which items a run selected."""


class NonFiniteInputError(ValueError):
    """Input features or kernel entries contain NaN or infinity."""


class AsymmetricKernelError(ValueError):
    """A kernel (L) input matrix is not bitwise equal to its transpose."""


class NonPositiveKError(ValueError):
    """A cardinality bound ``k`` below 1 was requested."""
