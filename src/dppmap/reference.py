"""Brute-force reference oracles.

Everything here recomputes from scratch: log-determinants via a full LAPACK
Cholesky of the extracted principal submatrix, optima via exhaustive subset
enumeration, inverses via factor-and-solve.  The point is independence — this
path shares no code with the incremental factor updates it is used to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import EnumerationLimitError, SingularKernelError

PIVOT_FLOOR = 1e-14
ENUMERATION_LIMIT = 20


def log_det(matrix: np.ndarray, subset) -> float:
    """ln det of the principal submatrix indexed by ``subset``.

    The empty subset yields 0 by the det = 1 convention.  Returns ``-inf``
    when the submatrix is numerically singular (a Cholesky pivot at or below
    ``PIVOT_FLOOR``, or not positive definite at all).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    idx = sorted(subset)
    if not idx:
        return 0.0
    sub = matrix[np.ix_(idx, idx)]
    if np.max(np.abs(sub - sub.T)) > 1e-10:
        raise ValueError("matrix is not symmetric")
    try:
        chol = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        return -math.inf
    diag = np.diagonal(chol)
    if np.any(diag * diag <= PIVOT_FLOOR):
        return -math.inf
    return float(2.0 * np.sum(np.log(diag)))


def exhaustive_map(matrix: np.ndarray, k: int | None = None) -> tuple[tuple[int, ...], float]:
    """Best subset by enumeration: argmax of ln det over all feasible subsets.

    ``k`` bounds the subset size; ``None`` means unconstrained.  Ties go to
    the lexicographically smallest index tuple.  Guarded to n <= 20.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"n={n} exceeds enumeration guard {ENUMERATION_LIMIT}")
    kmax = n if k is None else min(k, n)
    best_set: tuple[int, ...] = ()
    best_val = 0.0  # empty set
    for size in range(1, kmax + 1):
        for combo in itertools.combinations(range(n), size):
            val = log_det(matrix, combo)
            if val > best_val or (val == best_val and combo < best_set):
                best_val, best_set = val, combo
    return best_set, best_val


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix via Cholesky factor-and-solve.

    scipy is imported here, on the first call, so that only double greedy
    pays for loading it (about 0.35 s and 28 MB per process).
    """
    from scipy.linalg import cho_factor, cho_solve

    matrix = np.asarray(matrix, dtype=np.float64)
    try:
        factor = cho_factor(matrix, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularKernelError(f"matrix is not positive definite: {exc}") from None
    return cho_solve(factor, np.eye(matrix.shape[0]))
