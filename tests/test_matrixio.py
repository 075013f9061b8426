import numpy as np
import pytest

from dppmap import matrixio
from dppmap.kernel import SparseColumns


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
    for a, b in zip(back.indices, cols.indices):
        assert np.array_equal(a, b)
    for a, b in zip(back.values, cols.values):
        assert np.array_equal(a, b)
    assert path.read_bytes()[:5] == b"DPPS1"


def test_csv_roundtrip(tmp_path):
    mat = np.array([[1.5, -2.25], [0.1, 3.0]])
    path = tmp_path / "m.csv"
    matrixio.write_dense_csv(path, mat)
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
    matrixio.write_dense_csv(csv_path, mat)
    kind, payload = matrixio.load_matrix(csv_path)
    assert kind == "dense" and np.array_equal(payload, mat)


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
