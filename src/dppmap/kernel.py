"""Uniform access to kernel entries under feature-matrix and precomputed-matrix inputs.

An oracle answers ``entry(i, j)`` for a positive semi-definite kernel that is
either materialized (an n-by-n matrix, O(1) per entry) or implicit as a Gram
matrix of feature columns (dense or sparse, O(d) / O(nnz) per entry).  All
inner products are summed in ascending feature-index order with a single
accumulator, so entries are bit-for-bit reproducible across calls and across
the dense/sparse storage of the same features.

Two kinds of sparse input take an exact integer sum instead of the fold.
The oracle decides once, at construction; every other input stays on the fold.

* Sparse features whose every stored value is ``1.0`` (binarized ratings),
  and whose per-item bitsets take no more room than the index copy they
  replace (``n * ceil(d / 64) <= nnz``, a density of at least 1/64), keep one
  Python-int bitset per item.  A lookup is the popcount of two bitsets'
  intersection: the number of common indices, which is the sum of the
  products ``1.0 * 1.0`` over them.  That count is at most ``d < 2**53``, so
  it converts to a float exactly, and the ascending fold of those products
  reaches the same integer at every step without rounding.
* Other sparse features whose every stored value is an integer, with
  ``max_nnz * max|v|**2 <= 2**53`` (``max_nnz`` the most values any one
  column stores), sum with one ``np.dot``.  Every product and every partial
  sum of such a dot is an integer of magnitude at most ``2**53``, so it is
  exactly representable and every summation order (BLAS blocking and FMA
  included) gives the bits of the ascending fold.  0/1 files below the
  popcount density qualify here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricKernelError, NegativeDiagonalError, NonFiniteInputError

B_DENSE = "bdense"
B_SPARSE = "bsparse"
B_BITS = "bbits"  # sparse 0/1 features held as per-item bitsets
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
    """Compressed sparse columns: one item per column, as three flat arrays.

    Column ``c`` stores ``indices[indptr[c]:indptr[c + 1]]`` with the values
    at the same positions.  ``indptr`` is int64 of length ``ncols + 1``,
    ``indices`` uint32 and ``values`` float64, both of length ``indptr[-1]``.
    Indices are strictly increasing within each column and below ``dim``;
    explicit zeros are never stored.  The defaults hold no columns.
    """

    dim: int
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint32))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def ncols(self) -> int:
        return self.indptr.size - 1

    def validate(self) -> None:
        """Raise ``ValueError`` for malformed pointers, else naming the first column with a fault.

        A column's faults are judged in a fixed order: indices not strictly
        increasing, an index out of range, an explicit zero, and a NaN or
        infinite value, which raises :class:`NonFiniteInputError`.
        """
        indptr, indices, values = self.indptr, self.indices, self.values
        if indptr.ndim != 1 or indices.ndim != 1 or values.ndim != 1:
            raise ValueError("indptr, indices and values must be 1-D arrays")
        if not indptr.size or indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must be nondecreasing")
        if indices.size != values.size:
            raise ValueError("index/value length mismatch")
        if indptr[-1] != indices.size:
            raise ValueError(f"indptr ends at {indptr[-1]}, not at the {indices.size} stored entries")
        signed = indices.astype(np.int64)
        not_increasing = np.zeros(signed.size, dtype=bool)
        not_increasing[1:] = signed[1:] <= signed[:-1]
        not_increasing[indptr[:-1][indptr[:-1] < signed.size]] = False  # a column's first index
        faults = ((ValueError, "indices not strictly increasing", not_increasing),
                  (ValueError, "index out of range", (signed < 0) | (signed >= self.dim)),
                  (ValueError, "explicit zero stored", values == 0.0),
                  (NonFiniteInputError, "non-finite value stored", ~np.isfinite(values)))
        bad = np.flatnonzero(np.logical_or.reduce([mask for _, _, mask in faults]))
        if not bad.size:
            return
        c = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        lo, hi = indptr[c], indptr[c + 1]
        error, message = next((error, message) for error, message, mask in faults if mask[lo:hi].any())
        raise error(f"column {c}: {message}")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseColumns":
        """Drop zeros from a dense d-by-n matrix, one sparse column per item.

        One ``nonzero`` pass over a mask of ``dense.T`` lists the stored
        entries item by item, each item's indices ascending (``nonzero``
        reads in row-major order whatever the layout): a contiguous read
        when ``dense`` is item-major (as ``gen_synthetic`` makes it), a
        strided one otherwise.  The columns are the same for either layout.
        The boolean mask is there for speed: numpy finds the nonzeros of a
        float64 array several times slower.
        """
        dense = np.asarray(dense, dtype=np.float64)
        d, n = dense.shape
        items = dense.T
        item, flat = np.divmod(np.flatnonzero(items != 0.0), d)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(item, minlength=n), out=indptr[1:])
        return cls(d, indptr, flat.astype(np.uint32), items[item, flat])

    @property
    def width(self) -> int:
        """The largest stored index plus one (0 with nothing stored), which ``dim`` may far exceed."""
        return int(self.indices.max()) + 1 if self.indices.size else 0

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.ncols))
        out[self.indices.astype(np.intp), np.repeat(np.arange(self.ncols), np.diff(self.indptr))] = self.values
        return out


def _int_dot(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`seq_dot`'s bits for integer operands within the module docstring's bound."""
    return float(a.dot(b)) + 0.0


def _sums_exactly(columns: SparseColumns) -> bool:
    """Whether every dot of two of these columns is an exact integer sum (see the module docstring)."""
    values = columns.values
    if values.dtype != np.float64 or not np.array_equal(values, np.trunc(values)):
        return False
    top = int(np.abs(values).max(initial=0.0))
    return int(np.diff(columns.indptr).max(initial=0)) * top * top <= 2**53


def _bitsets(columns: SparseColumns) -> list[int] | None:
    """One Python-int bitset per column (bit ``s`` set for each stored index ``s``), or ``None``.

    ``None`` unless every stored value is exactly ``1.0`` and the bitsets are
    no larger than an ``intp`` index copy (see the module docstring).  Built
    in one pass: every index is placed at its column's bit offset, the bits
    are packed little-endian, and each column's bytes become one int.
    """
    n = columns.ncols
    words = -(-columns.dim // 64)
    if n * words > columns.indices.size or not (columns.values == 1.0).all():
        return None
    width = 64 * words
    flat = columns.indices.astype(np.intp)
    flat += np.repeat(np.arange(n, dtype=np.intp) * width, np.diff(columns.indptr))
    mask = np.zeros(n * width, dtype=bool)
    mask[flat] = True
    packed = np.packbits(mask, bitorder="little").tobytes()
    step = width // 8
    return [int.from_bytes(packed[c * step:(c + 1) * step], "little") for c in range(n)]


def require_finite(array: np.ndarray, what: str) -> None:
    """Raise :class:`NonFiniteInputError` unless every value of ``array`` is finite."""
    if not np.isfinite(array).all():
        raise NonFiniteInputError(f"{what} contains NaN or infinite values")


def _judge_diagonal(diag: np.ndarray) -> None:
    """Refuse a non-finite, then a negative adjusted kernel diagonal entry, naming the first.

    By Cauchy-Schwarz, ``|K[i, j]| <= sqrt(K[i, i] * K[j, j])``, so a finite
    diagonal bounds every entry of the kernel.
    """
    bad = np.flatnonzero(~np.isfinite(diag))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteInputError(f"kernel diagonal at {i} is not finite: {float(diag[i])}")
    bad = np.flatnonzero(diag < 0)
    if bad.size:
        i = int(bad[0])
        raise NegativeDiagonalError(f"negative kernel diagonal at {i}: {float(diag[i])}")


class _Scratch(threading.local):
    """A length-``dim`` vector per thread, allocated as the oracle is built
    and on another thread's first lookup.

    ``dim`` is the largest stored index plus one, not the header's ``d``,
    which a file may set far above any index it stores.

    Between lookups it holds one item: ``buf`` is that item's values
    scattered at its indices and zeros elsewhere, and ``held`` is the item
    (``-1``, all zeros, until the first scatter).
    """

    def __init__(self, dim: int):
        self.buf = np.zeros(dim)
        self.held = -1


class KernelOracle:
    """Kernel-entry access with an optional affine adjustment.

    ``entry(i, j)`` reports ``scale * K[i, j] + shift * [i == j]`` where ``K``
    is the raw kernel (Gram matrix of features, or the stored matrix).  The
    default ``scale=1, shift=0`` leaves the kernel untouched; a positive
    ``shift`` regularizes a singular kernel without materializing a new one.

    Every constructor, the bare one included, judges the kernel in
    ``__init__`` by one rule, and solvers check nothing: ``scale`` and
    ``shift`` must be finite and nonnegative, there must be at least one
    item, and each adjusted diagonal entry ``scale * K[i, i] + shift``, the
    value ``entry(i, i)`` returns, must be finite
    (:class:`NonFiniteInputError`, which bounds every entry) and then
    nonnegative (:class:`NegativeDiagonalError`), each naming the first.
    The ``from_*`` classmethods also check the payload: non-finite features
    or matrix entries, a sparse layout :meth:`SparseColumns.validate`
    refuses, and for ``from_dense_kernel`` a matrix that is not bitwise
    symmetric.  The bare constructor,
    ``KernelOracle(scale, shift, feats= | sparse= | matrix=)``, takes one
    payload (item-major n-by-d features, :class:`SparseColumns`' flat
    ``indptr``/``indices``/``values`` arrays, or an n-by-n matrix) and reads
    the kind, ``n`` and ``d`` off it.  It trusts its caller with the payload
    past the diagonal (off-diagonal finiteness, symmetry, the sparse
    layout): it is for data already checked, such as a DPPS1 file
    ``read_sparse`` validated, or the kernel and inverse fast double greedy
    derives from a checked oracle.

    Sparse features are summed one of three ways, chosen at construction
    (see the module docstring): 0/1 features dense enough for bitsets take
    the popcount of two items' bitset intersection, other integer features
    one exact ``np.dot``, and the rest the ascending fold.  All three give
    the bits of :func:`seq_dot` on the dense features.  Bitsets are built
    straight from the flat arrays; the other two split an ``intp`` copy of
    the indices, and the values, into per-item views once, at construction.

    Oracles are immutable after construction and safe for concurrent reads:
    a bitset lookup writes nothing, and any other sparse lookup writes only
    to a scratch vector private to the calling thread (see
    :class:`_Scratch`).  The scratch keeps the last item it
    scattered between lookups, and a lookup scatters only when neither of its
    items is the one held; so a factor row's catch-up, ``entry(i, j)`` for
    one ``i`` and many ``j``, scatters ``i`` once.  Both gather directions
    sum the same products over the common indices in ascending order, so the
    bits do not depend on which item is held.  ``eval_count`` tallies entry
    lookups for instrumentation; its increments are not synchronized, so
    concurrent readers may undercount.
    """

    def __init__(self, scale=1.0, shift=0.0, *, feats=None, sparse=None, matrix=None):
        if not (np.isfinite(scale) and np.isfinite(shift)):
            raise NonFiniteInputError(f"kernel scale {scale!r} and shift {shift!r} must be finite")
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        if feats is not None:
            kind, (n, d) = B_DENSE, feats.shape
        elif sparse is not None:
            kind, n, d = B_SPARSE, sparse.ncols, sparse.dim
        else:
            kind, n, d = L_DENSE, matrix.shape[0], 0
        if n < 1:
            raise ValueError("a kernel needs at least one item")
        self.kind = kind
        self.n = int(n)
        self.d = int(d)
        self.scale = float(scale)
        self.shift = float(shift)
        self._feats = feats          # item-major (n, d), rows contiguous
        self._sparse = sparse
        self._matrix = matrix
        if sparse is not None:
            self._bits = _bitsets(sparse)
            if self._bits is not None:
                self.kind = B_BITS
            else:
                self._sparse_idx = np.split(sparse.indices.astype(np.intp), sparse.indptr[1:-1])
                self._sparse_val = np.split(sparse.values, sparse.indptr[1:-1])
                self._scratch = _Scratch(sparse.width)
                self._dot = _int_dot if _sums_exactly(sparse) else seq_dot
        with np.errstate(over="ignore"):  # an overflowing diagonal is inf, which _judge_diagonal refuses
            if self.kind == B_BITS:
                raw = np.diff(sparse.indptr)  # each item's popcount
            elif self.kind == B_SPARSE:
                raw = np.fromiter((self._dot(v, v) for v in self._sparse_val), np.float64, self.n)
            elif feats is not None:
                raw = np.einsum("ij,ij->i", feats, feats)
            else:
                raw = np.diagonal(matrix)
            _judge_diagonal(self.scale * raw + self.shift)
        self.eval_count = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense_features(cls, features: np.ndarray, scale: float = 1.0, shift: float = 0.0) -> "KernelOracle":
        """Wrap a d-by-n feature matrix (one column per item).

        Lookups read items as contiguous rows of an n-by-d array.  Item-major
        input (``features.T`` C-contiguous, as ``gen_synthetic`` makes it) is
        that array already and is kept as a view, so the caller must not
        mutate it afterwards; any other layout is copied once.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        require_finite(features, "feature matrix")
        return cls(scale, shift, feats=np.ascontiguousarray(features.T))

    @classmethod
    def from_sparse_features(cls, columns: SparseColumns, scale: float = 1.0, shift: float = 0.0) -> "KernelOracle":
        columns.validate()
        return cls(scale, shift, sparse=columns)

    @classmethod
    def from_dense_kernel(cls, matrix: np.ndarray, scale: float = 1.0, shift: float = 0.0) -> "KernelOracle":
        """Wrap a precomputed n-by-n kernel matrix (O(1) entry access).

        The matrix must be square, finite and bitwise equal to its transpose
        (:class:`AsymmetricKernelError`); these payload checks run before the
        constructor judges ``scale``, ``shift``, the item count and the
        adjusted diagonal.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("kernel matrix must be square")
        require_finite(matrix, "kernel matrix")
        matrix = np.ascontiguousarray(matrix)
        bits = matrix.view(np.uint64)
        asymmetric = bits != bits.T
        if asymmetric.any():
            i, j = np.argwhere(asymmetric)[0]
            raise AsymmetricKernelError(f"kernel (L) input is not bitwise symmetric at K[{i}, {j}]")
        return cls(scale, shift, matrix=matrix)

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
        elif self.kind == B_BITS:
            raw = float((self._bits[i] & self._bits[j]).bit_count())
        elif self.kind == B_DENSE:
            raw = seq_dot(self._feats[i], self._feats[j])
        else:
            values = self._sparse_val
            if i == j:
                raw = self._dot(values[i], values[i])
            else:
                scratch = self._scratch
                held = scratch.held
                if held != i and held != j:
                    self._hold(scratch, i)
                    held = i
                other = j if held == i else i
                raw = self._dot(scratch.buf[self._sparse_idx[other]], values[other])
        v = self.scale * raw
        if i == j:
            v += self.shift
        return v

    def column(self, j: int, rows) -> np.ndarray:
        """``entry(r, j)`` for every ``r`` in ``rows``, bit for bit, as one array.

        ``rows`` is an index array, or ``slice(lo, hi)`` for the rows
        ``lo..hi-1``: a range is bounds-checked in O(1) and read through a
        view (L reads ``matrix[lo:hi, j]``, the ``matrix[r, j]`` orientation
        ``entry(r, j)`` reads), and the shift goes to row ``j`` only when
        ``lo <= j < hi``.  Dense kinds gather or sum all rows in one numpy
        pass; each row's sum keeps the ascending single-accumulator order of
        :func:`seq_dot`.  Bitset features take one popcount per row; other
        sparse features hold item ``j`` in the scratch (scattering it unless
        it is already held) and gather per row.  Counts one lookup per row.
        """
        if isinstance(rows, slice):
            lo, hi = rows.start, rows.stop
            if rows.step is not None or not (0 <= j < self.n and 0 <= lo <= hi <= self.n):
                raise IndexError(f"kernel column {j} or its rows {lo}..{hi} out of range for n={self.n}")
            count, diag = hi - lo, (j - lo if lo <= j < hi else None)
        else:
            rows = np.asarray(rows, dtype=np.intp)
            if not 0 <= j < self.n or (rows.size and not (0 <= rows.min() and rows.max() < self.n)):
                raise IndexError(f"kernel column {j} or its rows out of range for n={self.n}")
            count, diag = rows.size, rows == j
        self.eval_count += count
        if self.kind == L_DENSE:
            raw = self._matrix[rows, j]
        elif self.kind == B_DENSE:
            products = self._feats[rows] * self._feats[j]
            raw = np.add.accumulate(products, axis=1)[:, -1] + 0.0 if self.d else np.zeros(count)
        elif self.kind == B_BITS:
            bits, bits_j = self._bits, self._bits[j]
            items = bits[rows] if isinstance(rows, slice) else [bits[r] for r in rows.tolist()]
            raw = np.fromiter(((b & bits_j).bit_count() for b in items), np.float64, count)
        else:
            idx, values, dot = self._sparse_idx, self._sparse_val, self._dot
            buf = self._hold(self._scratch, j)
            items = range(rows.start, rows.stop) if isinstance(rows, slice) else rows.tolist()
            raw = np.array([dot(buf[idx[r]], values[r]) for r in items])
        v = self.scale * raw
        if diag is not None:
            v[diag] += self.shift
        return v

    def _hold(self, scratch: _Scratch, i: int) -> np.ndarray:
        """Make ``scratch`` hold item ``i``, unloading the item it held; return its vector.

        If this fails part-way, the scratch is zeroed and holds no item.
        """
        idx, buf = self._sparse_idx, scratch.buf
        if scratch.held == i:
            return buf
        try:
            if scratch.held >= 0:
                buf[idx[scratch.held]] = 0.0
            buf[idx[i]] = self._sparse_val[i]
            scratch.held = i
        except BaseException:
            buf.fill(0.0)
            scratch.held = -1
            raise
        return buf

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
        else:  # rows past the stored width are zero, so only the width is densified
            cols = self._sparse
            dense = SparseColumns(cols.width, cols.indptr, cols.indices, cols.values).to_dense()
            raw = dense.T @ dense
        raw *= self.scale  # raw is a fresh array on every path
        if self.shift:
            raw[np.diag_indices_from(raw)] += self.shift
        return raw
