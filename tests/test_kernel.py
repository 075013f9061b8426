import sys
import threading
import time

import numpy as np
import pytest

from dppmap.kernel import KernelOracle, SparseColumns, seq_dot, sparse_dot


def test_seq_dot_matches_left_fold():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(257)
        b = rng.standard_normal(257)
        acc = 0.0
        for x, y in zip(a.tolist(), b.tolist()):
            acc += x * y
        assert seq_dot(a, b) == acc


def test_seq_dot_empty():
    assert seq_dot(np.empty(0), np.empty(0)) == 0.0


def test_entry_orthogonal_columns():
    ora = KernelOracle.from_dense_features(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert ora.entry(0, 1) == 0.0


def test_entry_hand_inner_product():
    ora = KernelOracle.from_dense_features(np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert ora.entry(0, 1) == 2.0
    assert ora.entry(1, 1) == 2.0


def test_entry_diagonal_shift():
    ora = KernelOracle.from_dense_kernel(np.array([[4.0, 2.0], [2.0, 4.0]]), shift=0.1)
    assert ora.entry(0, 0) == pytest.approx(4.1, abs=0)
    assert ora.entry(0, 1) == 2.0


def test_entry_bounds():
    ora = KernelOracle.from_dense_kernel(np.eye(3))
    with pytest.raises(IndexError):
        ora.entry(0, 3)
    with pytest.raises(IndexError):
        ora.entry(-1, 0)


def test_entry_counts_evals():
    ora = KernelOracle.from_dense_kernel(np.eye(3))
    ora.entry(0, 0)
    ora.entry(1, 2)
    assert ora.eval_count == 2


def _col(pairs, dim=8):
    idx = np.array(sorted(pairs), dtype=np.uint32)
    val = np.array([pairs[i] for i in sorted(pairs)], dtype=float)
    return idx, val


def test_sparse_dot_disjoint():
    a = _col({})
    b = _col({3: 1.0})
    assert sparse_dot(*a, *b) == 0.0


def test_sparse_dot_single_overlap():
    a = _col({1: 1.0, 2: 1.0})
    b = _col({2: 1.0, 5: 1.0})
    assert sparse_dot(*a, *b) == 1.0


def test_sparse_dot_self():
    a = _col({0: 2.0, 4: 3.0})
    assert sparse_dot(*a, *a) == 13.0


def test_sparse_matches_dense_exactly():
    """Zeros-dropped sparse columns agree with the dense path bit for bit."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        d, n = rng.integers(3, 20), rng.integers(2, 10)
        dense = rng.standard_normal((int(d), int(n)))
        dense[rng.random(dense.shape) < 0.5] = 0.0
        ora_d = KernelOracle.from_dense_features(dense)
        ora_s = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
        for i in range(int(n)):
            for j in range(int(n)):
                assert ora_d.entry(i, j) == ora_s.entry(i, j)


def test_symmetry_bitwise():
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((16, 9))
    ora = KernelOracle.from_dense_features(dense)
    for i in range(9):
        for j in range(9):
            assert ora.entry(i, j) == ora.entry(j, i)


def test_gram_minors_psd():
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((12, 10))
    ora = KernelOracle.from_dense_features(dense)
    for _ in range(5):
        subset = rng.permutation(10)[:8]
        gram = np.array([[ora.entry(int(i), int(j)) for j in subset] for i in subset])
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10


def test_scale_and_shift():
    base = np.array([[4.0, 2.0], [2.0, 4.0]])
    ora = KernelOracle.from_dense_kernel(base, scale=0.9, shift=0.1)
    assert ora.entry(0, 0) == pytest.approx(0.9 * 4.0 + 0.1)
    assert ora.entry(0, 1) == pytest.approx(0.9 * 2.0)
    plain = KernelOracle.from_dense_kernel(base)
    assert plain.entry(0, 0) == 4.0


def test_materialize_matches_entries():
    rng = np.random.default_rng(10)
    dense = rng.standard_normal((6, 5))
    ora = KernelOracle.from_dense_features(dense, scale=0.9, shift=0.1)
    mat = ora.materialize()
    for i in range(5):
        for j in range(5):
            assert mat[i, j] == pytest.approx(ora.entry(i, j), rel=1e-12, abs=1e-12)


def test_sparse_columns_validation():
    cols = SparseColumns(dim=4)
    cols.indices.append(np.array([2, 1], dtype=np.uint32))  # not increasing
    cols.values.append(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        cols.validate()
    cols = SparseColumns(dim=4)
    cols.indices.append(np.array([1], dtype=np.uint32))
    cols.values.append(np.array([0.0]))  # explicit zero
    with pytest.raises(ValueError):
        cols.validate()


def _searchsorted_dot(a_idx, a_val, b_idx, b_val):
    """The binary-search sparse inner product the scatter/gather lookup replaced."""
    if a_idx.size == 0 or b_idx.size == 0:
        return 0.0
    if a_idx.size > b_idx.size:
        a_idx, a_val, b_idx, b_val = b_idx, b_val, a_idx, a_val
    pos = np.searchsorted(b_idx, a_idx)
    pos_clip = np.minimum(pos, b_idx.size - 1)
    hit = b_idx[pos_clip] == a_idx
    if not np.any(hit):
        return 0.0
    return float(np.cumsum(a_val[hit] * b_val[pos_clip[hit]])[-1])


def _bits(x):
    return np.float64(x).tobytes()


def _structured_features(seed, d=40, n=24):
    """Random signed features plus empty, disjoint and single-overlap columns."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((d, n))
    dense[rng.random((d, n)) < 0.7] = 0.0
    dense[:, 0] = 0.0                                            # empty column
    dense[:, 1] = 0.0
    dense[0::2, 1] = -rng.random(d // 2) - 0.5                   # even rows only
    dense[:, 2] = 0.0
    dense[1::2, 2] = -rng.random(d // 2) - 0.5                   # odd rows only: disjoint from 1
    dense[:, 3] = 0.0
    dense[[4, 7, 9], 3] = [-1.5, 2.0, -0.25]
    dense[:, 4] = 0.0
    dense[[7, 11, 30], 4] = [3.0, -1.0, 0.5]                     # shares only index 7 with 3
    return dense


@pytest.mark.parametrize("seed", range(6))
def test_sparse_lookup_bitwise_matches_dense_and_searchsorted(seed):
    dense = _structured_features(seed)
    n = dense.shape[1]
    cols = SparseColumns.from_dense(dense)
    ora_d = KernelOracle.from_dense_features(dense)
    ora_s = KernelOracle.from_sparse_features(cols)
    for i in range(n):
        for j in range(n):
            want = _searchsorted_dot(cols.indices[i], cols.values[i], cols.indices[j], cols.values[j])
            got = ora_s.entry(i, j)
            assert _bits(got) == _bits(want), (i, j)
            assert _bits(got) == _bits(ora_d.entry(i, j)), (i, j)
            assert _bits(sparse_dot(cols.indices[i], cols.values[i],
                                    cols.indices[j], cols.values[j])) == _bits(want), (i, j)


def test_zero_entries_are_positive_zero_in_both_storages():
    # every product is -0.0: a bare cumsum over the dense products would return -0.0
    dense = np.array([[-1.0, 0.0], [0.0, -1.0]])
    ora_d = KernelOracle.from_dense_features(dense)
    ora_s = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    assert _bits(ora_d.entry(0, 1)) == _bits(ora_s.entry(0, 1)) == _bits(0.0)
    assert _bits(seq_dot(np.array([-1.0, 0.0]), np.array([0.0, -1.0]))) == _bits(0.0)


def test_sparse_lookup_is_o_nnz_in_huge_dimension():
    d, n = 1_000_000, 40
    rng = np.random.default_rng(3)
    cols = SparseColumns(dim=d)
    for _ in range(n):
        nnz = int(rng.integers(0, 6))
        cols.indices.append(np.sort(rng.choice(d, nnz, replace=False)).astype(np.uint32))
        cols.values.append(rng.standard_normal(nnz) + 3.0)
    ora = KernelOracle.from_sparse_features(cols)
    ora.entry(0, 1)  # first lookup in this thread allocates the scratch vector
    t0 = time.perf_counter()
    for i in range(n):
        for j in range(n):
            ora.entry(i, j)
    per_lookup_ms = (time.perf_counter() - t0) * 1000.0 / (n * n)
    # a length-d pass (allocation or cumsum) costs about a millisecond per lookup
    assert per_lookup_ms < 0.2


def test_two_threads_read_one_sparse_oracle():
    dense = _structured_features(11, d=60, n=30)
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    pairs = [(i, j) for i in range(30) for j in range(30)]
    serial = [_bits(ora.entry(i, j)) for i, j in pairs]
    results = [None, None]

    def read(slot):
        results[slot] = [_bits(ora.entry(i, j)) for _ in range(5) for i, j in pairs]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(slot,)) for slot in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    assert results[0] == results[1] == serial * 5


def _malformed(dim, columns):
    cols = SparseColumns(dim=dim)
    for idx, val in columns:
        cols.indices.append(np.array(idx, dtype=np.uint32))
        cols.values.append(np.array(val, dtype=float))
    return cols


@pytest.mark.parametrize("cols, message", [
    (SparseColumns(dim=3, indices=[np.array([0], dtype=np.uint32)], values=[]),
     "index/value column count mismatch"),
    (_malformed(5, [([0], [1.0]), ([1, 2], [1.0])]),
     "column 1: index/value length mismatch"),
    (_malformed(5, [([0, 1], [1.0, 2.0]), ([], []), ([3, 3], [1.0, 1.0])]),
     "column 2: indices not strictly increasing"),
    (_malformed(5, [([2, 1], [1.0, 1.0])]),
     "column 0: indices not strictly increasing"),
    (_malformed(5, [([1], [1.0]), ([2, 5], [1.0, 1.0])]),
     "column 1: index out of range"),
    (SparseColumns(dim=5, indices=[np.array([-1, 2])], values=[np.array([1.0, 1.0])]),
     "column 0: index out of range"),
    (_malformed(5, [([4], [1.0]), ([1, 3], [2.0, 0.0])]),
     "column 1: explicit zero stored"),
    # only the first bad column is named, and a column's checks run in a fixed order
    (_malformed(5, [([0], [1.0]), ([3, 1], [0.0, 1.0]), ([9], [0.0])]),
     "column 1: indices not strictly increasing"),
    (_malformed(5, [([], []), ([1, 7], [1.0, 0.0]), ([1, 1], [1.0, 1.0])]),
     "column 1: index out of range"),
])
def test_sparse_columns_validation_messages(cols, message):
    with pytest.raises(ValueError) as err:
        cols.validate()
    assert str(err.value) == message


def test_sparse_columns_validation_accepts_boundary_steps():
    # a column may start at or below the previous column's last index
    cols = _malformed(6, [([3, 5], [1.0, -1.0]), ([], []), ([0, 5], [2.0, 1.0]), ([5], [1.0])])
    assert cols._all_columns_valid()  # accepted by the vectorized pass, no per-column scan
    cols.validate()


def _oracles_of_every_kind(scale=1.0, shift=0.0):
    """(label, oracle) for L, dense B and sparse B over signed features with zeros."""
    dense = _structured_features(7, n=16)
    dense[:, 5] = 0.0
    dense[[2, 3], 5] = [-1.0, 1e-300]
    dense[:, 6] = 0.0
    dense[[3, 4], 6] = [-1e-300, -1.0]                   # the one common product underflows to -0.0
    kernel = KernelOracle.from_dense_features(dense).materialize()
    kernel[0, 0] = -0.0                                  # a signed-zero diagonal the shift must reach
    kernel[0, 1] = kernel[1, 0] = -0.0
    return [
        ("L", KernelOracle.from_dense_kernel(kernel, scale, shift)),
        ("dense B", KernelOracle.from_dense_features(dense, scale, shift)),
        ("sparse B", KernelOracle.from_sparse_features(SparseColumns.from_dense(dense), scale, shift)),
    ]


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.9, 0.1), (-0.5, 2.0)])
def test_column_bitwise_matches_entry(scale, shift):
    for label, ora in _oracles_of_every_kind(scale, shift):
        n = ora.n
        for j in range(n):
            for rows in (np.arange(n), np.array([j, 0, n - 1, j, 3])):
                want = np.array([ora.entry(int(r), j) for r in rows])
                got = ora.column(j, rows)
                assert got.dtype == np.float64 and got.shape == rows.shape
                assert got.tobytes() == want.tobytes(), (label, j, rows)


def test_column_signed_zeros_are_positive():
    for label, ora in _oracles_of_every_kind():
        col = ora.column(1, np.arange(ora.n))
        assert _bits(col[0]) == _bits(ora.entry(0, 1)), label
        if label != "L":
            assert _bits(ora.column(5, np.array([6]))[0]) == _bits(0.0), label
    ora = _oracles_of_every_kind()[0][1]
    assert _bits(ora.column(0, np.array([0]))[0]) == _bits(0.0)  # -0.0 + shift 0.0 on the diagonal


def test_column_counts_one_eval_per_row_and_accepts_empty_rows():
    for label, ora in _oracles_of_every_kind():
        empty = ora.column(2, np.array([], dtype=np.intp))
        assert empty.shape == (0,) and empty.dtype == np.float64, label
        assert ora.eval_count == 0, label
        ora.column(2, [0, 2, 2])
        assert ora.eval_count == 3, label


def test_column_bounds():
    ora = KernelOracle.from_dense_kernel(np.eye(3))
    for j, rows in ((3, [0]), (-1, [0]), (0, [3]), (0, [-1, 1])):
        with pytest.raises(IndexError):
            ora.column(j, rows)
    assert ora.eval_count == 0
