import ast
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppmap
from dppmap import matrixio
from dppmap.datagen import SyntheticSpec, gen_synthetic
from dppmap.kernel import SparseColumns

# Address-space cap for loads of hostile files: far above what the loader
# needs, far below the gigabytes a trusted oversized header would ask for.
ADDRESS_CAP = 1 << 30
FUZZ_EXAMPLES = 300

# Binary files that fall through to the CSV reader.  Neither is UTF-8 text: the
# f64 value 1.0 holds the byte 0xf0, which no ASCII byte may follow in UTF-8.
NON_TEXT = {
    "unknown-magic": b"NOPE!" + struct.pack("<IId", 1, 1, 1.0),
    "dpps1-fifth-byte-changed": b"DPPS2" + struct.pack("<IIIId", 2, 1, 1, 0, 1.0),
}


def write_dense_csv(path, matrix):
    """The CSV layout ``read_dense_csv`` reads: one row per line, shortest round-trip floats."""
    with open(path, "w") as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def test_dense_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((7, 3))
    path = tmp_path / "m.dppm1"
    matrixio.write_dense(path, mat)
    back = matrixio.read_dense(path)
    assert np.array_equal(back, mat)
    assert path.read_bytes()[:5] == b"DPPM1"


def test_dense_bad_magic(tmp_path):
    path = tmp_path / "bad.dppm1"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        matrixio.read_dense(path)


def test_sparse_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((9, 4))
    dense[rng.random(dense.shape) < 0.6] = 0.0
    cols = SparseColumns.from_dense(dense)
    path = tmp_path / "m.dpps1"
    matrixio.write_sparse(path, cols)
    back = matrixio.read_sparse(path)
    assert back.dim == cols.dim
    assert back.ncols == cols.ncols
    for name in ("indptr", "indices", "values"):
        assert getattr(back, name).dtype == getattr(cols, name).dtype, name
        assert np.array_equal(getattr(back, name), getattr(cols, name)), name
    assert path.read_bytes()[:5] == b"DPPS1"


def test_csv_roundtrip(tmp_path):
    mat = np.array([[1.5, -2.25], [0.1, 3.0]])
    path = tmp_path / "m.csv"
    write_dense_csv(path, mat)
    back = matrixio.read_dense_csv(path)
    assert np.array_equal(back, mat)


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="ragged"):
        matrixio.read_dense_csv(path)
    path.write_text("1.0,abc\n")
    with pytest.raises(ValueError, match="bad.csv:1"):
        matrixio.read_dense_csv(path)


def test_load_matrix_sniffs(tmp_path):
    mat = np.eye(3)
    dense_path = tmp_path / "a.bin"
    matrixio.write_dense(dense_path, mat)
    kind, payload = matrixio.load_matrix(dense_path)
    assert kind == "dense" and np.array_equal(payload, mat)

    cols = SparseColumns.from_dense(mat)
    sparse_path = tmp_path / "b.bin"
    matrixio.write_sparse(sparse_path, cols)
    kind, payload = matrixio.load_matrix(sparse_path)
    assert kind == "sparse" and payload.ncols == 3

    csv_path = tmp_path / "c.csv"
    write_dense_csv(csv_path, mat)
    kind, payload = matrixio.load_matrix(csv_path)
    assert kind == "dense" and np.array_equal(payload, mat)


def test_the_package_reads_text_only_in_text_lines():
    """Every ``open`` that reads text sits in ``matrixio.text_lines``; binary reads and all writes are exempt."""
    readers = set()

    def reads_text(call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "read_text":
            return True
        if not (isinstance(func, ast.Name) and func.id == "open"):
            return False
        mode = call.args[1] if len(call.args) > 1 else next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
        if mode is None:
            return True  # the default mode reads text
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True  # a mode the guard cannot read counts as a text read
        return "b" not in mode.value and not set(mode.value) & set("wax")

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and reads_text(child):
                readers.add(".".join(scope))
            visit(child, scope)

    for path in Path(dppmap.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    assert readers == {"matrixio.text_lines"}


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("block", [1, 8 * 7 * 3, 1 << 20])  # one row; three rows of 11 x 7; every row
@pytest.mark.parametrize("shape", [(11, 7), (1, 5), (5, 1), (0, 4), (4, 0)])
def test_dense_bytes_are_the_same_for_either_layout(tmp_path, monkeypatch, block, shape):
    monkeypatch.setattr(matrixio, "WRITE_BLOCK", block)
    rows, cols = shape
    item_major = np.arange(rows * cols, dtype=np.float64).reshape(cols, rows).T - 2.5
    want = b"DPPM1" + struct.pack("<II", rows, cols) + item_major.astype("<f8").tobytes()
    for label, matrix in (("item-major", item_major), ("C-order", np.ascontiguousarray(item_major))):
        path = tmp_path / f"{label}.dppm1"
        matrixio.write_dense(path, matrix)
        assert path.read_bytes() == want, label
        assert matrixio.read_dense(path).shape == shape


def test_writing_item_major_features_copies_one_block_at_most(tmp_path):
    features = gen_synthetic(SyntheticSpec(n=1000, d=500, seed=5))  # 4 MB, sixteen blocks
    path = tmp_path / "f.dppm1"
    _, peak = traced_peak(matrixio.write_dense, path, features)
    assert peak <= matrixio.WRITE_BLOCK + (64 << 10) <= features.nbytes / 3
    assert np.array_equal(matrixio.read_dense(path), features)


def test_dense_reads_into_one_writable_array(tmp_path):
    matrix = np.random.default_rng(6).standard_normal((500, 1000))
    matrix[0, :3] = [-0.0, np.inf, np.nan]
    path = tmp_path / "m.dppm1"
    matrixio.write_dense(path, matrix)
    back, peak = traced_peak(matrixio.read_dense, path)
    assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable
    assert back.tobytes() == matrix.tobytes()
    assert peak <= 1.1 * matrix.nbytes


def columns_of(cols):
    """``(indices, values)`` of each column of ``cols``, as views of its flat arrays."""
    return [(cols.indices[lo:hi], cols.values[lo:hi])
            for lo, hi in zip(cols.indptr[:-1].tolist(), cols.indptr[1:].tolist())]


def per_column_dpps1(columns: SparseColumns) -> bytes:
    """DPPS1 bytes laid out one column at a time: its count, then its packed records."""
    out = [b"DPPS1", struct.pack("<II", columns.dim, columns.ncols)]
    for idx, val in columns_of(columns):
        out.append(struct.pack("<I", idx.size))
        rec = np.empty(idx.size, dtype=[("i", "<u4"), ("v", "<f8")])
        rec["i"] = idx
        rec["v"] = val
        out.append(rec.tobytes())
    return b"".join(out)


def _binarized(n, d, seed):
    """The benchmark's 0/1 features: generated normals above 1.645, about 5% dense."""
    return (gen_synthetic(SyntheticSpec(n=n, d=d, seed=seed)) > 1.645).astype(np.float64)


@pytest.mark.parametrize("label, dense", [
    ("no columns", lambda: np.zeros((3, 0))),
    ("n = 1", lambda: np.array([[0.0], [-1.5], [2.0]])),
    ("n = 1, empty", lambda: np.zeros((4, 1))),
    ("empty columns first, inside and last", lambda: np.array([[0.0, 1.0, 0.0, 0.0, 3.0, 0.0],
                                                               [0.0, 0.0, 0.0, -2.0, 0.5, 0.0]])),
    ("all columns empty", lambda: np.zeros((5, 3))),
    ("Gaussian", lambda: np.where(np.arange(40).reshape(8, 5) % 3 == 0, 0.0,
                                  np.random.default_rng(7).standard_normal((8, 5)))),
    ("random-sparse-run shape", lambda: _binarized(1000, 2000, 1)),
])
def test_sparse_bytes_match_a_per_column_writer(tmp_path, label, dense):
    columns = SparseColumns.from_dense(dense())
    path = tmp_path / "s.dpps1"
    matrixio.write_sparse(path, columns)
    assert path.read_bytes() == per_column_dpps1(columns), label
    back = matrixio.read_sparse(path)
    assert back.dim == columns.dim and back.ncols == columns.ncols


def _dense_file(tmp_path):
    path = tmp_path / "m.dppm1"
    matrixio.write_dense(path, np.arange(6.0).reshape(2, 3))
    return path


def _sparse_file(tmp_path):
    path = tmp_path / "m.dpps1"
    matrixio.write_sparse(path, SparseColumns.from_dense(np.array([[1.0, 0.0], [2.0, 3.0]])))
    return path


@pytest.mark.parametrize("make, read", [
    (_dense_file, matrixio.read_dense),
    (_sparse_file, matrixio.read_sparse),
])
@pytest.mark.parametrize("cut, message", [
    (lambda raw: raw + b"\x00", "trailing bytes after payload"),
    (lambda raw: raw[:9], "truncated header"),
    (lambda raw: raw[:-3], "truncated"),
])
def test_malformed_files_raise_value_error_naming_path(tmp_path, make, read, cut, message):
    path = make(tmp_path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=message) as err:
        read(path)
    assert str(path) in str(err.value)


def test_truncation_names_the_cut_section(tmp_path):
    dense = _dense_file(tmp_path)
    dense.write_bytes(dense.read_bytes()[:-3])
    with pytest.raises(ValueError, match="truncated payload"):
        matrixio.read_dense(dense)
    sparse = _sparse_file(tmp_path)
    raw = sparse.read_bytes()
    for cut in (len(raw) - 3, 13 + 2):  # inside the last record; inside the first count
        sparse.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated column"):
            matrixio.read_sparse(sparse)


def run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter under ``ADDRESS_CAP`` bytes of address space.

    A loader that trusted a hostile header would fail fast there with
    ``MemoryError`` instead of allocating gigabytes.  BLAS is held to one
    thread so that its buffers fit under the cap.
    """
    paths = [str(Path(dppmap.__file__).parents[1]), str(Path(__file__).parent)]
    prelude = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_CAP}, {ADDRESS_CAP})); "
               f"sys.path[:0] = {paths!r}\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True,
                          timeout=300, env=env)


def describe_load(path) -> dict:
    """What ``load_matrix(path)`` raised: the exception's name, whether it is a ValueError, its message."""
    try:
        matrixio.load_matrix(path)
    except Exception as exc:
        return {"raised": type(exc).__name__, "value_error": isinstance(exc, ValueError), "message": str(exc)}
    return {"raised": None}


def load_capped(path) -> dict:
    """:func:`describe_load` in a fresh interpreter under the address-space cap."""
    proc = run_capped(f"import json, test_matrixio; print(json.dumps(test_matrixio.describe_load({str(path)!r})))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("raw, message", [
    # rows * cols * 8 overflows a C ssize_t read size
    (b"DPPM1" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF), "truncated payload"),
    # a 29-byte file claiming 2**20 x 2**12 doubles (32 GiB)
    (b"DPPM1" + struct.pack("<II", 1 << 20, 1 << 12) + bytes(16), "truncated payload"),
    # one column claiming 2**32 - 1 records (48 GiB)
    (b"DPPS1" + struct.pack("<III", 4, 1, 0xFFFFFFFF) + bytes(12), "truncated column"),
    # 2**32 - 1 columns (an int64 pointer each: 32 GiB) over a 4-byte body
    (b"DPPS1" + struct.pack("<III", 4, 0xFFFFFFFF, 0), "truncated column"),
    # binary files the magic sniff hands to the CSV reader
    *((raw, "not a UTF-8 text file") for raw in NON_TEXT.values()),
], ids=["dense-overflow", "dense-32GiB", "sparse-column-48GiB", "sparse-4G-columns", *NON_TEXT])
def test_hostile_headers_raise_before_any_oversized_read(tmp_path, raw, message):
    path = tmp_path / "hostile.bin"
    path.write_bytes(raw)
    out = load_capped(path)
    assert out["value_error"], out
    assert message in out["message"] and str(path) in out["message"]


@pytest.mark.parametrize("argv", [["--algo", "random"], ["--algo", "naive"], ["--algo", "random", "--check"]],
                         ids=["random", "naive", "random-check"])
def test_a_huge_sparse_dimension_runs_within_the_cap(tmp_path, argv):
    """A 61-byte DPPS1 file may claim d = 2**32 - 1 over three one-entry columns.

    Sparse lookups size their scratch vector, and ``materialize`` its dense
    copy of the features (``naive``, ``--check``), from the largest stored
    index, so ``dppmap run`` fits under the cap and reports the header's ``d``.
    """
    path = tmp_path / "wide.bin"
    columns = b"".join(struct.pack("<IId", 1, index, value) for index, value in ((0, 2.0), (7, 3.0), (7, 1.5)))
    path.write_bytes(b"DPPS1" + struct.pack("<II", 0xFFFFFFFF, 3) + columns)
    assert path.stat().st_size == 61
    proc = run_capped(f"from dppmap import cli; cli.main(['run', *{argv!r}, '--k', '1', '--input', {str(path)!r}])")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["d"] == 0xFFFFFFFF and report["n"] == 3 and len(report["selection"]) == 1


def _count_offsets(raw: bytes) -> list[int]:
    """Byte offsets of each column's u32 record count in a well-formed DPPS1 file."""
    offsets, pos = [], 13
    while pos < len(raw):
        offsets.append(pos)
        (nnz,) = struct.unpack_from("<I", raw, pos)
        pos += 4 + 12 * nnz
    return offsets


def _payload_bytes(kind: str, payload) -> int:
    """The file size a loaded payload accounts for."""
    if kind == "dense":
        return 13 + 8 * payload.size
    return 13 + 4 * payload.ncols + 12 * payload.indices.size


@st.composite
def _well_formed(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 7.0]), min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(values, dtype=np.float64).reshape(rows, cols)
    return draw(st.sampled_from(["dense", "sparse"])), matrix


def fuzz_load_matrix(workdir) -> None:
    """Truncate, extend and overwrite the header and count bytes of DPPM1/DPPS1 files.

    ``load_matrix`` may raise only ``ValueError`` subclasses, must reject every
    truncated or extended file, and may accept an overwritten one only when
    its payload accounts for every byte of the file.
    """
    path = Path(workdir) / "fuzzed.bin"

    @settings(max_examples=FUZZ_EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(_well_formed(), st.data())
    def check(instance, data):
        fmt, matrix = instance
        if fmt == "dense":
            matrixio.write_dense(path, matrix)
        else:
            matrixio.write_sparse(path, SparseColumns.from_dense(matrix))
        raw = path.read_bytes()
        edit = data.draw(st.sampled_from(["truncate", "extend", "overwrite"]))
        if edit == "truncate":
            mutated = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif edit == "extend":
            mutated = raw + data.draw(st.binary(min_size=1, max_size=16))
        else:
            targets = list(range(13)) + (_count_offsets(raw) if fmt == "sparse" else [])
            at = data.draw(st.sampled_from(targets))
            patch = data.draw(st.one_of(st.sampled_from([b"\xff\xff\xff\xff", b"\x00\x00\x00\x00",
                                                         b"\xff\xff\xff\x7f", b"\x00\x00\x10\x00"]),
                                        st.binary(min_size=1, max_size=4)))
            mutated = raw[:at] + patch + raw[at + len(patch):]
        path.write_bytes(mutated)
        try:
            kind, payload = matrixio.load_matrix(path)
        except ValueError:
            return
        assert edit == "overwrite", f"accepted a file after {edit}: {mutated!r}"
        assert mutated[:5] in (matrixio.DENSE_MAGIC, matrixio.SPARSE_MAGIC), mutated
        assert _payload_bytes(kind, payload) == len(mutated), mutated

    check()


def test_load_matrix_survives_a_header_and_count_fuzzer(tmp_path):
    proc = run_capped(f"import test_matrixio; test_matrixio.fuzz_load_matrix({str(tmp_path)!r})")
    assert proc.returncode == 0, proc.stderr[-4000:]
