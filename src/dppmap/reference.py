"""Brute-force reference oracles.

Everything here recomputes from scratch: log-determinants via a full LAPACK
Cholesky of the extracted principal submatrix, optima via exhaustive subset
enumeration, inverses via factor-and-solve.  The point is independence — this
path shares no code with the incremental factor updates it is used to check.
:func:`gains` forms every brute-force marginal gain; :func:`pick_order` orders the picks.

The inverse calls LAPACK's ``dpotrf``/``dpotrs`` through scipy's compiled
``_flapack`` wrappers, the calls ``scipy.linalg.cho_factor(lower=True)`` and
``cho_solve`` make, so its bits are theirs; the in-order dot cache of
:mod:`dppmap.cholesky` takes ``dgemm`` from the ``_fblas`` wrappers.  Each
extension is loaded from its file in scipy's installed ``linalg`` directory,
which skips running ``scipy/linalg/__init__.py``: ``_flapack`` adds about
2.5 MB of RSS to a 27 MB numpy process and ``_fblas`` about 1.2 MB more,
where ``import scipy.linalg`` adds about 28 MB.  Where a file is missing,
``scipy.linalg.lapack`` or ``.blas`` is imported instead; both routes give
the same wrapper functions, and a later ``import scipy.linalg`` reuses the
extensions already loaded.  numpy's own LAPACK is not used: it bundles
another OpenBLAS build, whose inverses differ in the last bits.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os

import numpy as np

from .errors import EnumerationLimitError, SingularKernelError
from .kernel import require_finite

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
    require_finite(sub, "submatrix")  # a NaN would also pass the symmetry test below
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


def gains(matrix: np.ndarray, selection, base: float, candidates) -> list[tuple[float, int, float]]:
    """``(gain, item, objective)`` per candidate, in candidate order: ``objective`` is
    ``log_det(matrix, selection + [item])``, ``gain`` is ``objective - base`` for the
    caller's ``base = log_det(matrix, selection)``.  A commit records its row's objective.
    A candidate with no kernel entry on the selection is a block of its own, so its
    objective is ``base + log_det(matrix, [item])``: its gain does not depend on where
    a Cholesky of the whole subset, whose rounding moves with it, would put it."""
    selection = list(selection)
    objectives = [(int(i), base + log_det(matrix, [i]) if not matrix[i, selection].any()
                   else log_det(matrix, [*selection, i])) for i in candidates]
    return [(objective - base, i, objective) for i, objective in objectives]


def pick_order(row: tuple[float, int, float]) -> tuple[float, int]:
    """Sort key of a :func:`gains` row: gain descending, ties to the smaller index."""
    return -row[0], row[1]


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


def _linalg_extension(name: str):
    """scipy's compiled ``linalg`` wrappers ``name`` (``_flapack`` or ``_fblas``), without ``import scipy.linalg``."""
    spec = importlib.util.find_spec("scipy")
    for base in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("scipy.linalg." + name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module
    return importlib.import_module("scipy.linalg." + name[2:])  # lapack or blas


_lapack = functools.cache(functools.partial(_linalg_extension, "_flapack"))  # each loaded once per process
_blas = functools.cache(functools.partial(_linalg_extension, "_fblas"))


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix via Cholesky factor-and-solve.

    Bit for bit ``cho_solve(cho_factor(matrix, lower=True), eye(n))``, with
    their checks: a non-finite entry raises
    :class:`~dppmap.errors.NonFiniteInputError`, a matrix that is not square
    ``ValueError``, and one that is not positive definite
    :class:`SingularKernelError`.  scipy is reached on the first call (see
    the module docstring), so only double greedy pays for it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    require_finite(matrix, "matrix")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    n = matrix.shape[0]
    if not n:
        return np.zeros((0, 0))
    lapack = _lapack()
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0)
    if info > 0:
        raise SingularKernelError(f"matrix is not positive definite: {info}-th leading minor "
                                  "of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".')
    inv, info = lapack.dpotrs(factor, np.eye(n, order="F"), lower=1, overwrite_b=1)  # solved in place
    if info:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return inv
