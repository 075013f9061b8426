"""On-disk matrix formats.

Dense:  magic ``DPPM1`` | u32 LE rows | u32 LE cols | rows*cols f64 LE row-major.
Sparse: magic ``DPPS1`` | u32 LE d | u32 LE n | per column: u32 LE nnz then
        nnz records of (u32 LE index, f64 LE value), indices ascending.
CSV fallback, read only, for dense matrices: comma-separated decimal floats, no header.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .kernel import SparseColumns

DENSE_MAGIC = b"DPPM1"
SPARSE_MAGIC = b"DPPS1"

_PAIR_DTYPE = np.dtype([("i", "<u4"), ("v", "<f8")])


def write_dense(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("dense format stores 2-D matrices")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(DENSE_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what}")
    return data


def _expect_end(fh, path) -> None:
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after payload")


def read_dense(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != DENSE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {DENSE_MAGIC!r}")
        rows, cols = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        data = np.frombuffer(_read_exact(fh, rows * cols * 8, path, "payload"), dtype="<f8")
        _expect_end(fh, path)
    return data.reshape(rows, cols).astype(np.float64)


def write_sparse(path, columns: SparseColumns) -> None:
    columns.validate()
    with open(path, "wb") as fh:
        fh.write(SPARSE_MAGIC)
        fh.write(struct.pack("<II", columns.dim, columns.ncols))
        for idx, val in zip(columns.indices, columns.values):
            fh.write(struct.pack("<I", idx.size))
            rec = np.empty(idx.size, dtype=_PAIR_DTYPE)
            rec["i"] = idx
            rec["v"] = val
            fh.write(rec.tobytes())


def read_sparse(path) -> SparseColumns:
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != SPARSE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {SPARSE_MAGIC!r}")
        dim, ncols = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        cols = SparseColumns(dim=dim)
        for _ in range(ncols):
            (nnz,) = struct.unpack("<I", _read_exact(fh, 4, path, "column"))
            rec = np.frombuffer(_read_exact(fh, nnz * _PAIR_DTYPE.itemsize, path, "column"),
                                dtype=_PAIR_DTYPE)
            cols.indices.append(rec["i"].astype(np.uint32))
            cols.values.append(rec["v"].astype(np.float64))
        _expect_end(fh, path)
    cols.validate()
    return cols


def read_dense_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
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
