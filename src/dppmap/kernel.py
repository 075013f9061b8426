"""Uniform access to kernel entries under feature-matrix and precomputed-matrix inputs.

An oracle answers ``entry(i, j)`` for a positive semi-definite kernel that is
either materialized (an n-by-n matrix, O(1) per entry) or implicit as a Gram
matrix of feature columns (dense or sparse, O(d) / O(nnz) per entry).  All
inner products are summed in ascending feature-index order with a single
accumulator, so entries are bit-for-bit reproducible across calls and across
the dense/sparse storage of the same features.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInputError

B_DENSE = "bdense"
B_SPARSE = "bsparse"
L_DENSE = "ldense"


def seq_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product accumulated strictly left to right.

    ``np.add.accumulate`` (the ufunc behind ``np.cumsum``, called directly to
    skip its dispatch) walks the array with a single running accumulator,
    which pins the floating-point result to one summation order regardless of
    how the operands are stored.  Adding ``0.0`` turns a ``-0.0`` sum into
    ``+0.0``, so the result equals the left fold ``((0.0 + p0) + p1) + ...``
    bit for bit.  That fold is unchanged by inserting zero terms of either
    sign, so a dense vector and its zeros-dropped sparse counterpart produce
    identical sums, sign of zero included.
    """
    p = a * b
    if p.size == 0:
        return 0.0
    return float(np.add.accumulate(p)[-1]) + 0.0


@dataclass
class SparseColumns:
    """Compressed sparse columns: per column a sorted index array + values.

    Indices are strictly increasing within each column and below ``dim``;
    explicit zeros are never stored.
    """

    dim: int
    indices: list[np.ndarray] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)

    @property
    def ncols(self) -> int:
        return len(self.indices)

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first malformed column, if any.

        A NaN or infinite value raises :class:`NonFiniteInputError`.

        One vectorized pass over the concatenated columns accepts well-formed
        input; only when it fails does the per-column scan run, to name the
        first bad column.
        """
        if len(self.indices) != len(self.values):
            raise ValueError("index/value column count mismatch")
        if not self._all_columns_valid():
            self._raise_first_fault()

    def _all_columns_valid(self) -> bool:
        """Whether every column passes, checked over the concatenated arrays.

        Conservative: ``False`` only sends the caller to the per-column scan.
        """
        if not self.indices:
            return True
        sizes = np.fromiter((idx.size for idx in self.indices), np.intp, len(self.indices))
        if not np.array_equal(sizes, np.fromiter((val.size for val in self.values),
                                                 np.intp, len(self.values))):
            return False
        try:
            flat_idx = np.concatenate(self.indices)
            flat_val = np.concatenate(self.values)
        except ValueError:  # 0-d or mixed-rank columns
            return False
        if flat_idx.ndim != 1 or flat_val.ndim != 1:
            return False
        if np.any(flat_val == 0.0) or not np.isfinite(flat_val).all():
            return False
        if not flat_idx.size:
            return True
        signed = flat_idx.astype(np.int64)
        if signed.min() < 0 or signed.max() >= self.dim:
            return False
        steps = np.diff(signed)
        starts = np.cumsum(sizes[:-1])
        starts = starts[(starts > 0) & (starts < signed.size)]
        steps[starts - 1] = 1  # the step into a new column's first index is not checked
        return not np.any(steps <= 0)

    def _raise_first_fault(self) -> None:
        for c, (idx, val) in enumerate(zip(self.indices, self.values)):
            if idx.shape != val.shape:
                raise ValueError(f"column {c}: index/value length mismatch")
            signed = idx.astype(np.int64)
            if signed.size and np.any(np.diff(signed) <= 0):
                raise ValueError(f"column {c}: indices not strictly increasing")
            if signed.size and (signed[0] < 0 or signed[-1] >= self.dim):
                raise ValueError(f"column {c}: index out of range")
            if np.any(val == 0.0):
                raise ValueError(f"column {c}: explicit zero stored")
            if not np.isfinite(val).all():
                raise NonFiniteInputError(f"column {c}: non-finite value stored")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseColumns":
        """Drop zeros from a dense d-by-n matrix, one sparse column per item."""
        dense = np.asarray(dense, dtype=np.float64)
        d, n = dense.shape
        cols = cls(dim=d)
        for j in range(n):
            nz = np.nonzero(dense[:, j])[0]
            cols.indices.append(nz.astype(np.uint32))
            cols.values.append(dense[nz, j].copy())
        return cols

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.ncols))
        for j, (idx, val) in enumerate(zip(self.indices, self.values)):
            out[idx.astype(np.intp), j] = val
        return out


def _scatter_dot(scratch: np.ndarray, a_idx: np.ndarray, a_val: np.ndarray,
                 b_idx: np.ndarray, b_val: np.ndarray) -> float:
    """Sparse inner product through a zeroed dense scratch vector.

    ``b`` is scattered into ``scratch``, gathered back at ``a``'s indices and
    the products are summed by :func:`seq_dot` in ascending index order.  The
    products at indices ``b`` lacks are zeros, which that sum ignores, so the
    result equals :func:`seq_dot` on the dense equivalents.  O(nnz) per call;
    ``scratch`` (intp indices below its length) is all zeros again on return.
    """
    scratch[b_idx] = b_val
    try:
        return seq_dot(scratch[a_idx], a_val)
    finally:
        scratch[b_idx] = 0.0


def sparse_dot(a_idx: np.ndarray, a_val: np.ndarray, b_idx: np.ndarray, b_val: np.ndarray) -> float:
    """Inner product of two sparse columns over their common indices.

    Matches :func:`seq_dot` on the dense equivalents exactly.  Allocates a
    scratch vector up to the largest index; :class:`KernelOracle` reuses one
    per thread instead.
    """
    if a_idx.size == 0 or b_idx.size == 0:
        return 0.0
    a_idx = a_idx.astype(np.intp)
    b_idx = b_idx.astype(np.intp)
    scratch = np.zeros(int(max(a_idx[-1], b_idx[-1])) + 1)
    return _scatter_dot(scratch, a_idx, a_val, b_idx, b_val)


def require_finite(array: np.ndarray, what: str) -> None:
    """Raise :class:`NonFiniteInputError` unless every value of ``array`` is finite."""
    if not np.isfinite(array).all():
        raise NonFiniteInputError(f"{what} contains NaN or infinite values")


class _Scratch(threading.local):
    """A zeroed length-``dim`` vector per thread, allocated on its first lookup."""

    def __init__(self, dim: int):
        self.buf = np.zeros(dim)


class KernelOracle:
    """Kernel-entry access with an optional affine adjustment.

    ``entry(i, j)`` reports ``scale * K[i, j] + shift * [i == j]`` where ``K``
    is the raw kernel (Gram matrix of features, or the stored matrix).  The
    default ``scale=1, shift=0`` leaves the kernel untouched; a positive
    ``shift`` regularizes a singular kernel without materializing a new one.

    Oracles are immutable after construction and safe for concurrent reads:
    a sparse lookup writes only to a scratch vector private to the calling
    thread (see :func:`_scatter_dot`), and restores it to zeros before it
    returns.  ``eval_count`` tallies entry lookups for instrumentation; its
    increments are not synchronized, so concurrent readers may undercount.
    """

    def __init__(self, kind, n, d, scale=1.0, shift=0.0, feats=None, sparse=None, matrix=None):
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        self.kind = kind
        self.n = int(n)
        self.d = int(d)
        self.scale = float(scale)
        self.shift = float(shift)
        self._feats = feats          # item-major (n, d), rows contiguous
        self._sparse = sparse
        self._matrix = matrix
        if sparse is not None:
            self._sparse_idx = [idx.astype(np.intp) for idx in sparse.indices]
            self._scratch = _Scratch(self.d)
        self.eval_count = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense_features(cls, features: np.ndarray, scale: float = 1.0, shift: float = 0.0) -> "KernelOracle":
        """Wrap a d-by-n feature matrix (one column per item)."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        require_finite(features, "feature matrix")
        d, n = features.shape
        feats = np.ascontiguousarray(features.T)
        return cls(B_DENSE, n, d, scale, shift, feats=feats)

    @classmethod
    def from_sparse_features(cls, columns: SparseColumns, scale: float = 1.0, shift: float = 0.0) -> "KernelOracle":
        columns.validate()
        return cls(B_SPARSE, columns.ncols, columns.dim, scale, shift, sparse=columns)

    @classmethod
    def from_dense_kernel(cls, matrix: np.ndarray, scale: float = 1.0, shift: float = 0.0) -> "KernelOracle":
        """Wrap a precomputed n-by-n kernel matrix (O(1) entry access)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("kernel matrix must be square")
        require_finite(matrix, "kernel matrix")
        matrix = np.ascontiguousarray(matrix)
        return cls(L_DENSE, matrix.shape[0], 0, scale, shift, matrix=matrix)

    # -- access ------------------------------------------------------------

    @property
    def input_kind(self) -> str:
        return "L" if self.kind == L_DENSE else "B"

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"kernel index ({i}, {j}) out of range for n={self.n}")
        self.eval_count += 1
        if self.kind == L_DENSE:
            raw = float(self._matrix[i, j])
        elif self.kind == B_DENSE:
            raw = seq_dot(self._feats[i], self._feats[j])
        else:
            values = self._sparse.values
            if i == j:
                raw = seq_dot(values[i], values[i])
            else:
                idx = self._sparse_idx
                raw = _scatter_dot(self._scratch.buf, idx[i], values[i], idx[j], values[j])
        v = self.scale * raw
        if i == j:
            v += self.shift
        return v

    def column(self, j: int, rows) -> np.ndarray:
        """``entry(r, j)`` for every ``r`` in ``rows``, bit for bit, as one array.

        Dense kinds gather or sum all rows in one numpy pass; each row's sum
        keeps the ascending single-accumulator order of :func:`seq_dot`.
        Sparse features scatter item ``j`` once and gather per row.  Counts
        one lookup per row.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if not 0 <= j < self.n or (rows.size and not (0 <= rows.min() and rows.max() < self.n)):
            raise IndexError(f"kernel column {j} or its rows out of range for n={self.n}")
        self.eval_count += rows.size
        if self.kind == L_DENSE:
            raw = self._matrix[rows, j]
        elif self.kind == B_DENSE:
            products = self._feats[rows] * self._feats[j]
            raw = np.add.accumulate(products, axis=1)[:, -1] + 0.0 if self.d else np.zeros(rows.size)
        else:
            idx, values = self._sparse_idx, self._sparse.values
            scratch = self._scratch.buf
            scratch[idx[j]] = values[j]
            try:
                raw = np.array([seq_dot(scratch[idx[r]], values[r]) for r in rows.tolist()])
            finally:
                scratch[idx[j]] = 0.0
        v = self.scale * raw
        v[rows == j] += self.shift
        return v

    def materialize(self) -> np.ndarray:
        """Dense adjusted kernel, for reference-path algorithms.

        Built with BLAS for the feature-backed kinds, so individual entries
        may differ from ``entry()`` in the last bits; counted as one symmetric
        sweep of lookups.
        """
        self.eval_count += self.n * (self.n + 1) // 2
        if self.kind == L_DENSE:
            raw = self._matrix.copy()
        elif self.kind == B_DENSE:
            raw = self._feats @ self._feats.T
        else:
            dense = self._sparse.to_dense()
            raw = dense.T @ dense
        out = self.scale * raw
        if self.shift:
            out[np.diag_indices_from(out)] += self.shift
        return out
