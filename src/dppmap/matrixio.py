"""On-disk matrix formats.

Dense:  magic ``DPPM1`` | u32 LE rows | u32 LE cols | rows*cols f64 LE row-major.
Sparse: magic ``DPPS1`` | u32 LE d | u32 LE n | per column: u32 LE nnz then
        nnz records of (u32 LE index, f64 LE value), indices ascending.
        The body is a run of u32 words, so it maps onto
        :class:`~dppmap.kernel.SparseColumns`' flat arrays: the counts give
        ``indptr``, and the records, in file order, ``indices`` and ``values``.
CSV fallback, read only, for dense matrices: comma-separated decimal floats, no header.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .kernel import SparseColumns

DENSE_MAGIC = b"DPPM1"
SPARSE_MAGIC = b"DPPS1"

_PAIR_DTYPE = np.dtype([("i", "<u4"), ("v", "<f8")])

# Largest row-major copy write_dense makes of a matrix stored in another layout.
# Writing gen_synthetic(n=1000, d=2000) (16 MB, item-major) took 22 ms in
# 256 KB blocks, as with one whole copy, against 27 and 31 ms in 64 and 16 KB
# blocks (medians of 9), and left `dppmap gen`'s peak RSS where it was.
WRITE_BLOCK = 1 << 18


def write_dense(path, matrix: np.ndarray) -> None:
    """Write ``matrix`` as DPPM1.

    A C-contiguous little-endian matrix is written from its own buffer.  Any
    other layout, such as ``gen_synthetic``'s item-major features, is copied
    to row-major order in blocks of at most ``WRITE_BLOCK`` bytes (or one
    row), so writing it never holds a second copy of the matrix.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("dense format stores 2-D matrices")
    rows, cols = matrix.shape
    step = max(1, WRITE_BLOCK // (8 * max(cols, 1)))
    with open(path, "wb") as fh:
        fh.write(DENSE_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        for lo in range(0, rows, step):
            fh.write(memoryview(np.ascontiguousarray(matrix[lo:lo + step], dtype="<f8")))


def _read_exact(fh, size: int, path, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what}")
    return data


def _bytes_left(fh) -> int:
    """Bytes between the read position and the end of the file.

    Every size a header claims is checked against this before it is read, so
    a hostile header cannot ask for an oversized read or allocation.
    """
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _expect_end(fh, path) -> None:
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after payload")


def read_dense(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != DENSE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {DENSE_MAGIC!r}")
        rows, cols = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if rows * cols * 8 > _bytes_left(fh):
            raise ValueError(f"{path}: truncated payload")
        data = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(data.reshape(-1).view(np.uint8)) != data.nbytes:
            raise ValueError(f"{path}: truncated payload")
        _expect_end(fh, path)
    return data.astype(np.float64, copy=False)


def _count_words(indptr: np.ndarray) -> np.ndarray:
    """Which u32 words of a DPPS1 body are counts, for columns bounded by ``indptr``.

    Column ``c``'s count is word ``c + 3 * indptr[c]``: ``indptr[c]`` records
    (three words each) and ``c`` counts come before it.  Every other word
    belongs to a record.
    """
    n = indptr.size - 1
    is_count = np.zeros(n + 3 * int(indptr[-1]), dtype=bool)
    is_count[np.arange(n) + 3 * indptr[:-1]] = True
    return is_count


def write_sparse(path, columns: SparseColumns) -> None:
    """Write validated ``columns`` as DPPS1, built in one buffer and written once."""
    columns.validate()
    records = np.empty(columns.indices.size, dtype=_PAIR_DTYPE)
    records["i"] = columns.indices
    records["v"] = columns.values
    is_count = _count_words(columns.indptr)
    out = np.empty(13 + 4 * is_count.size, dtype=np.uint8)
    out[:5] = np.frombuffer(SPARSE_MAGIC, np.uint8)
    out[5:13] = np.frombuffer(struct.pack("<II", columns.dim, columns.ncols), np.uint8)
    words = out[13:].view("<u4")
    words[is_count] = np.diff(columns.indptr)
    words[~is_count] = records.view("<u4")
    with open(path, "wb") as fh:
        fh.write(out)


def read_sparse(path) -> SparseColumns:
    """Read and validate a DPPS1 file.

    The body is read once.  A walk over its count words finds where each
    column ends, and one gather over the remaining words extracts every
    record.
    """
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != SPARSE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {SPARSE_MAGIC!r}")
        dim, ncols = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if 4 * ncols > _bytes_left(fh):  # every column holds at least its count word
            raise ValueError(f"{path}: truncated column")
        body = fh.read()
    words = np.frombuffer(body, "<u4", len(body) // 4)
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    at = 0  # the next column's count word
    for c in range(ncols):
        if at >= words.size:
            raise ValueError(f"{path}: truncated column")
        nnz = int(words[at])
        indptr[c + 1] = indptr[c] + nnz
        at += 1 + 3 * nnz
        if at > words.size:
            raise ValueError(f"{path}: truncated column")
    if 4 * at != len(body):
        raise ValueError(f"{path}: trailing bytes after payload")
    records = words[~_count_words(indptr)].view(_PAIR_DTYPE)
    cols = SparseColumns(dim, indptr, records["i"].astype(np.uint32), records["v"].astype(np.float64))
    cols.validate()
    return cols


def text_lines(path):
    """Yield ``("path:line", line)`` for each non-blank line of the text file at ``path``, stripped.

    The one place the package reads text: the dense CSV fallback, rating
    triples and per-movie rating files all come through here.  A file that
    is not UTF-8 text raises ``ValueError`` naming the path.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield f"{path}:{ln}", line
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not a UTF-8 text file") from None


def read_dense_csv(path) -> np.ndarray:
    rows = []
    for where, line in text_lines(path):
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.array(rows, dtype=np.float64)


def load_matrix(path):
    """Sniff the magic and load either format; CSV as a fallback.

    Returns ``("dense", ndarray)`` or ``("sparse", SparseColumns)``.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(5)
    if magic == DENSE_MAGIC:
        return "dense", read_dense(path)
    if magic == SPARSE_MAGIC:
        return "sparse", read_sparse(path)
    return "dense", read_dense_csv(path)
