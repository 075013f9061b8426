import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dppmap import reference
from dppmap.bench import build_synthetic_oracle
from dppmap.datagen import SyntheticSpec, gen_synthetic
from dppmap.errors import NonFiniteInputError
from dppmap.kernel import B_BITS, KernelOracle, SparseColumns, _int_dot, seq_dot

from test_matrixio import columns_of, traced_peak


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


def sparse_dot(a_idx: np.ndarray, a_val: np.ndarray, b_idx: np.ndarray, b_val: np.ndarray) -> float:
    """Inner product of two sparse columns over their common indices.

    ``b`` is scattered into a zeroed scratch vector up to the largest index,
    gathered back at ``a``'s indices, and the products are summed by
    :func:`seq_dot` in ascending index order.  The products at indices ``b``
    lacks are zeros, which that sum ignores, so the result equals
    :func:`seq_dot` on the dense equivalents exactly.  :class:`KernelOracle`
    reuses one scratch vector per thread instead.
    """
    if a_idx.size == 0 or b_idx.size == 0:
        return 0.0
    a_idx = a_idx.astype(np.intp)
    b_idx = b_idx.astype(np.intp)
    scratch = np.zeros(int(max(a_idx[-1], b_idx[-1])) + 1)
    scratch[b_idx] = b_val
    return seq_dot(scratch[a_idx], a_val)


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


def test_materialize_scales_its_result_in_place():
    n = 400
    oracle = KernelOracle.from_dense_features(np.random.default_rng(11).standard_normal((20, n)), 0.9, 0.1)
    tracemalloc.start()
    try:
        matrix = oracle.materialize()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.nbytes == n * n * 8
    assert peak <= 1.2 * matrix.nbytes


def test_sparse_columns_validation():
    cols = _malformed(4, [([2, 1], [1.0, 1.0])])  # not increasing
    with pytest.raises(ValueError):
        cols.validate()
    cols = _malformed(4, [([1], [0.0])])  # explicit zero
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
    columns = columns_of(cols)
    ora_d = KernelOracle.from_dense_features(dense)
    ora_s = KernelOracle.from_sparse_features(cols)
    for i in range(n):
        for j in range(n):
            want = _searchsorted_dot(*columns[i], *columns[j])
            got = ora_s.entry(i, j)
            assert _bits(got) == _bits(want), (i, j)
            assert _bits(got) == _bits(ora_d.entry(i, j)), (i, j)
            assert _bits(sparse_dot(*columns[i], *columns[j])) == _bits(want), (i, j)


def _per_item_columns(dense):
    """``SparseColumns.from_dense`` item by item: one ``nonzero`` call per item, the reference."""
    items = np.asarray(dense, dtype=np.float64).T
    nonzeros = [item.nonzero()[0] for item in items]
    indptr = np.zeros(len(nonzeros) + 1, dtype=np.int64)
    np.cumsum([nz.size for nz in nonzeros], out=indptr[1:])
    flat = np.concatenate(nonzeros) if nonzeros else np.zeros(0, np.intp)
    values = items[np.repeat(np.arange(len(nonzeros)), np.diff(indptr)), flat]
    return indptr, flat.astype(np.uint32), values


@pytest.mark.parametrize("d, n", [(40, 12), (1, 9), (5, 0), (0, 4)])
@pytest.mark.parametrize("item_major", [True, False], ids=["item-major", "c-ordered"])
def test_from_dense_equals_the_per_item_construction(d, n, item_major):
    rng = np.random.default_rng(d * 100 + n)
    dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.3)  # item-major source
    dense[rng.random((n, d)) < 0.05] = -0.0                              # dropped, like +0.0
    dense[rng.random((n, d)) < 0.03] = np.nan                            # kept, as nonzero keeps it
    dense[n // 3:n // 2] = 0.0                                           # all-zero items
    dense = dense.T if item_major else np.ascontiguousarray(dense.T)
    assert (dense.T if item_major else dense).flags.c_contiguous
    cols = SparseColumns.from_dense(dense)
    indptr, indices, values = _per_item_columns(dense)
    assert (cols.dim, cols.ncols) == (d, n)
    assert cols.indptr.tobytes() == indptr.tobytes()
    assert cols.indices.tobytes() == indices.tobytes()
    assert cols.values.tobytes() == values.tobytes()
    assert cols.indptr.dtype == np.int64 and cols.indices.dtype == np.uint32 and cols.values.dtype == np.float64
    if n > 2:
        assert (np.diff(indptr) == 0).any()


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
    columns = []
    for _ in range(n):
        nnz = int(rng.integers(0, 6))
        columns.append((np.sort(rng.choice(d, nnz, replace=False)), rng.standard_normal(nnz) + 3.0))
    ora = KernelOracle.from_sparse_features(_malformed(d, columns))
    ora.entry(0, 1)  # first lookup in this thread allocates the scratch vector
    t0 = time.perf_counter()
    for i in range(n):
        for j in range(n):
            ora.entry(i, j)
    per_lookup_ms = (time.perf_counter() - t0) * 1000.0 / (n * n)
    # a length-d pass (allocation or cumsum) costs about a millisecond per lookup
    assert per_lookup_ms < 0.2


def test_two_threads_read_one_sparse_oracle():
    _read_in_two_threads(KernelOracle.from_sparse_features(SparseColumns.from_dense(
        _structured_features(11, d=60, n=30))))


def _read_in_two_threads(ora):
    """Two threads read every entry five times, interleaved finely; both see the serial bits.

    The pairs come in a shuffled order, so most lookups change the item a
    thread's scratch holds.
    """
    pairs = [(i, j) for i in range(ora.n) for j in range(ora.n)]
    pairs = [pairs[p] for p in np.random.default_rng(0).permutation(len(pairs))]
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


def _malformed(dim, columns, index_dtype=np.uint32):
    """Flat columns from ``(indices, values)`` pairs, checked by nothing."""
    indptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum([len(idx) for idx, _ in columns], out=indptr[1:])
    return SparseColumns(dim, indptr,
                         np.array([i for idx, _ in columns for i in idx], dtype=index_dtype),
                         np.array([v for _, val in columns for v in val], dtype=float))


def _pointers(indptr, nnz=2, values=None):
    """Columns of ``dim = 5`` over ``nnz`` valid entries with a given ``indptr``."""
    values = np.ones(nnz) if values is None else values
    return SparseColumns(5, np.array(indptr, dtype=np.int64), np.arange(nnz, dtype=np.uint32), values)


@pytest.mark.parametrize("cols, message", [
    (_pointers([0, 1]), "indptr ends at 1, not at the 2 stored entries"),
    (_pointers([0, 2], values=np.ones(3)), "index/value length mismatch"),
    (_malformed(5, [([0, 1], [1.0, 2.0]), ([], []), ([3, 3], [1.0, 1.0])]),
     "column 2: indices not strictly increasing"),
    (_malformed(5, [([2, 1], [1.0, 1.0])]),
     "column 0: indices not strictly increasing"),
    (_malformed(5, [([1], [1.0]), ([2, 5], [1.0, 1.0])]),
     "column 1: index out of range"),
    (_malformed(5, [([-1, 2], [1.0, 1.0])], index_dtype=np.int64),
     "column 0: index out of range"),
    (_malformed(5, [([4], [1.0]), ([1, 3], [2.0, 0.0])]),
     "column 1: explicit zero stored"),
    # only the first bad column is named, and a column's checks run in a fixed order
    (_malformed(5, [([0], [1.0]), ([3, 1], [0.0, 1.0]), ([9], [0.0])]),
     "column 1: indices not strictly increasing"),
    (_malformed(5, [([], []), ([1, 7], [1.0, 0.0]), ([1, 1], [1.0, 1.0])]),
     "column 1: index out of range"),
    # malformed pointers are refused before any column is judged
    (_pointers([1, 2]), "indptr must start at 0"),
    (_pointers([]), "indptr must start at 0"),
    (_pointers([0, 2, 1, 2]), "indptr must be nondecreasing"),
    (_pointers([0, 3]), "indptr ends at 3, not at the 2 stored entries"),
    (_pointers([0, 2], values=np.ones((2, 1))), "indptr, indices and values must be 1-D arrays"),
])
def test_sparse_columns_validation_messages(cols, message):
    with pytest.raises(ValueError) as err:
        cols.validate()
    assert str(err.value) == message


def test_sparse_columns_validation_accepts_boundary_steps():
    # a column may start at or below the previous column's last index
    cols = _malformed(6, [([3, 5], [1.0, -1.0]), ([], []), ([0, 5], [2.0, 1.0]), ([5], [1.0])])
    cols.validate()


def _first_fault_by_scan(dim, columns):
    """(error type, message) of the first fault a column-by-column scan finds, or ``None``."""
    for c, (idx, val) in enumerate(columns):
        idx, val = np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=float)
        if np.any(np.diff(idx) <= 0):
            return ValueError, f"column {c}: indices not strictly increasing"
        if idx.size and (idx[0] < 0 or idx[-1] >= dim):
            return ValueError, f"column {c}: index out of range"
        if np.any(val == 0.0):
            return ValueError, f"column {c}: explicit zero stored"
        if not np.isfinite(val).all():
            return NonFiniteInputError, f"column {c}: non-finite value stored"
    return None


@pytest.mark.parametrize("seed", range(4))
def test_validate_names_the_fault_a_column_scan_finds(seed):
    """Random columns with occasional faults of every kind, several per input and per column."""
    rng = np.random.default_rng(seed)
    faulty = 0
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        columns = []
        for _ in range(int(rng.integers(0, 5))):
            idx = np.sort(rng.choice(np.arange(-1, dim + 1), int(rng.integers(0, 4))))
            if idx.size > 1 and rng.random() < 0.1:
                idx = idx[::-1]
            val = rng.choice([1.0, -2.5, 0.0, np.nan, np.inf], idx.size, p=[0.45, 0.45, 0.04, 0.03, 0.03])
            columns.append((idx, val))
        want = _first_fault_by_scan(dim, columns)
        cols = _malformed(dim, columns, index_dtype=np.int64)
        if want is None:
            cols.validate()
            continue
        faulty += 1
        with pytest.raises(ValueError) as err:
            cols.validate()
        assert (type(err.value), str(err.value)) == want, columns
    assert 100 < faulty < 250


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


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.9, 0.1)])
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
    for j, rows in ((3, [0]), (-1, [0]), (0, [3]), (0, [-1, 1]),
                    (3, slice(0, 1)), (-1, slice(0, 1)), (0, slice(-1, 2)), (0, slice(0, 4)),
                    (0, slice(2, 1)), (0, slice(0, 3, 2))):
        with pytest.raises(IndexError):
            ora.column(j, rows)
    assert ora.eval_count == 0


def _range_oracles(shift):
    """(label, oracle) for every kind, plus the L oracle fast double greedy builds over the inverse."""
    matrix = build_synthetic_oracle(40, 40, 1, "L", 0.9, 0.1).materialize()
    inv = reference.inverse(matrix)
    assert not np.array_equal(inv, inv.T)  # so reading matrix[j, r] for matrix[r, j] would show
    inverse = KernelOracle(1.0, shift, matrix=np.ascontiguousarray(inv))
    return _oracles_of_every_kind(0.9, shift) + [("L inverse", inverse)]


@pytest.mark.parametrize("shift", [0.0, 0.1])
def test_column_over_a_range_bitwise_matches_entry(shift):
    for label, ora in _range_oracles(shift):
        n = ora.n
        for j in range(n):
            for lo, hi in ((0, n), (j, n), (min(j + 1, n), n), (n // 3, n // 2), (j, j)):
                evals = ora.eval_count
                got = ora.column(j, slice(lo, hi))
                assert ora.eval_count == evals + hi - lo, (label, j, lo, hi)
                want = np.array([ora.entry(r, j) for r in range(lo, hi)])
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (label, j, lo, hi)


def test_column_over_a_range_shifts_row_j_once():
    for (label, plain), (_, shifted) in zip(_range_oracles(0.0), _range_oracles(0.25)):
        n = plain.n
        for j, lo, hi in ((3, 0, n), (3, 3, 9), (3, 4, n), (n - 1, 2, n), (0, 1, n)):
            base, got = plain.column(j, slice(lo, hi)), shifted.column(j, slice(lo, hi))
            want = base.copy()
            if lo <= j < hi:
                want[j - lo] += 0.25
            assert got.tobytes() == want.tobytes(), (label, j, lo, hi)


def _integer_features(seed, signed, d=40, n=24):
    """:func:`_structured_features` with its zero pattern, valued 0/1 or signed integers."""
    dense = _structured_features(seed, d, n)
    if not signed:
        return (dense != 0.0).astype(np.float64)
    return np.sign(dense) * np.ceil(np.abs(dense) * 2.0)


def _assert_lookups_match(ora, dense):
    """Every sparse entry equals the searchsorted fold and the dense ``seq_dot`` entry, bit for bit."""
    columns = columns_of(SparseColumns.from_dense(dense))
    ora_d = KernelOracle.from_dense_features(dense)
    for i in range(ora.n):
        for j in range(ora.n):
            want = _searchsorted_dot(*columns[i], *columns[j])
            assert _bits(want) == _bits(ora_d.entry(i, j)), (i, j)
            assert _bits(ora.entry(i, j)) == _bits(want), (i, j)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_integer_features_take_the_exact_dot_and_keep_the_bits(seed, signed):
    """Signed integers take the exact ``np.dot``; 0/1 features (30% dense) take the bitsets."""
    dense = _integer_features(seed, signed)
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    if signed:
        assert ora._dot is _int_dot
    else:
        assert ora.kind == B_BITS
    _assert_lookups_match(ora, dense)


def test_one_fractional_value_keeps_the_whole_oracle_on_the_fold():
    dense = _integer_features(0, signed=True)
    dense[np.flatnonzero(dense[:, 8])[0], 8] = 0.5
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    assert ora._dot is seq_dot
    _assert_lookups_match(ora, dense)


@pytest.mark.parametrize("max_nnz, exact", [(2, True), (3, False)])
def test_the_exact_dot_bound_is_max_nnz_times_the_largest_square(max_nnz, exact):
    """``max_nnz * max|v|**2 <= 2**53`` takes the dot: ``2 * (2**26)**2`` does, ``3 * (2**26)**2`` does not."""
    big = float(2**26)
    dense = np.zeros((6, 5))
    dense[:max_nnz, 0] = big
    dense[:max_nnz, 1] = [-big, big, -big][:max_nnz]
    dense[[0, 1], 2] = [big, big - 1.0]
    dense[[1, 4], 3] = [-3.0, big]
    dense[5, 4] = 1.0
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    assert (ora._dot is _int_dot) == exact
    _assert_lookups_match(ora, dense)


@pytest.mark.parametrize("signed", [False, True])
def test_interleaved_lookups_on_one_oracle_keep_the_bits(signed):
    """``entry`` in both argument orders, ``column`` and ``sparse_dot`` mixed on one oracle."""
    dense = _integer_features(4, signed)
    cols = SparseColumns.from_dense(dense)
    columns = columns_of(cols)
    ora = KernelOracle.from_sparse_features(cols)
    ora_d = KernelOracle.from_dense_features(dense)
    rng = np.random.default_rng(5)
    for _ in range(400):
        i, j = (int(v) for v in rng.integers(0, ora.n, 2))
        want = ora_d.entry(i, j)
        op = int(rng.integers(0, 4))
        if op == 0:
            got = ora.entry(i, j)
        elif op == 1:
            got = ora.entry(j, i)
        elif op == 2:
            got = ora.column(j, np.array([i, j, 0]))[0]
        else:
            got = sparse_dot(*columns[i], *columns[j])
        assert _bits(got) == _bits(want), (op, i, j)
        if signed:  # 0/1 features take the bitsets, which keep no scratch
            held = ora._scratch.held
            assert np.array_equal(ora._scratch.buf, dense[:, held] if held >= 0 else np.zeros(ora.d))
    assert (ora.kind == B_BITS) != signed


def test_lookups_scatter_only_when_neither_item_is_held():
    dense = _integer_features(2, signed=True)
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    scratch = ora._scratch
    assert scratch.held == -1
    ora.entry(5, 5)                        # a diagonal entry never scatters
    assert scratch.held == -1
    for j in (6, 9, 3):                    # a row's catch-up holds the row
        ora.entry(5, j)
        assert scratch.held == 5
    ora.entry(8, 5)
    assert scratch.held == 5
    ora.column(7, [0, 5, 7])               # column unloads 5 and holds 7
    assert scratch.held == 7
    assert np.array_equal(scratch.buf, dense[:, 7])


def test_a_failed_scatter_leaves_no_item_held():
    dense = _integer_features(3, signed=True)
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    ora.entry(5, 6)
    good = ora._sparse_val[9]
    ora._sparse_val[9] = np.array(["x"] * good.size)
    with pytest.raises(ValueError):
        ora.entry(9, 4)
    assert ora._scratch.held == -1 and not ora._scratch.buf.any()
    ora._sparse_val[9] = good
    _assert_lookups_match(ora, dense)


def test_two_threads_read_one_integer_oracle():
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(
        _integer_features(11, signed=True, d=60, n=30)))
    assert ora._dot is _int_dot
    _read_in_two_threads(ora)


def _binary_oracles(scale, shift):
    """(label, 0/1 features, bitset oracle): the structured pattern, one dense enough for two
    64-bit words, and one whose columns are all empty but one."""
    wide = (np.random.default_rng(9).random((130, 20)) < 0.2).astype(np.float64)
    wide[:, 3] = 0.0
    wide[[0, 63, 64, 127, 129], 4] = 1.0                  # word edges
    lone = np.zeros((64, 3))
    lone[[0, 5, 63], 1] = 1.0
    out = []
    for label, dense in (("structured", _integer_features(6, signed=False)), ("two words", wide),
                         ("lone", lone)):
        ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense), scale, shift)
        assert ora.kind == B_BITS, label
        out.append((label, dense, ora))
    return out


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.9, 0.1)])
def test_bitset_lookups_keep_the_bits_of_the_fold(scale, shift):
    """``entry`` and ``column`` (index arrays and ranges) on 0/1 bitset oracles equal the
    searchsorted fold and the dense ``seq_dot`` oracle bit for bit, empty columns and the
    shifted diagonal included."""
    for label, dense, ora in _binary_oracles(scale, shift):
        columns = columns_of(SparseColumns.from_dense(dense))
        ora_d = KernelOracle.from_dense_features(dense, scale, shift)
        n = ora.n
        for i in range(n):
            for j in range(n):
                raw = _searchsorted_dot(*columns[i], *columns[j])
                want = scale * raw
                if i == j:
                    want += shift
                assert _bits(ora.entry(i, j)) == _bits(want) == _bits(ora_d.entry(i, j)), (label, i, j)
        for j in range(n):
            for rows in (np.arange(n), np.array([j, 0, n - 1, j]), np.zeros(0, np.intp),
                         slice(0, n), slice(j, n), slice(0, 0)):
                got, want = ora.column(j, rows), ora_d.column(j, rows)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (label, j, rows)


def test_two_threads_read_one_bitset_oracle():
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(
        _integer_features(11, signed=False, d=60, n=30)))
    assert ora.kind == B_BITS
    _read_in_two_threads(ora)


@pytest.mark.parametrize("label, make, bits", [
    ("0/1 at density 1/64", lambda dense: dense, True),
    ("0/1 below density 1/64", lambda dense: np.hstack([dense, np.zeros((128, 1))]), False),
    ("one value 2.0", lambda dense: np.where((dense == 1.0) & (np.arange(128)[:, None] == 0), 2.0, dense), False),
    ("signed integers", lambda dense: -dense, False),
    ("Gaussian", lambda dense: dense * np.random.default_rng(1).standard_normal(dense.shape), False),
])
def test_bitsets_need_all_ones_and_density_one_in_64(label, make, bits):
    """``n * ceil(d / 64) <= nnz``: 40 columns of 128 rows need 80 stored values."""
    dense = np.zeros((128, 40))
    dense[np.arange(80) % 128, np.arange(80) // 2] = 1.0   # two values per column, row 0 in column 0
    dense = make(dense)
    ora = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
    assert (ora.kind == B_BITS) == bits, label
    assert not bits or not hasattr(ora, "_scratch")
    _assert_lookups_match(ora, dense)


def _both_layouts(seed=20, d=9, n=7):
    """The same d-by-n features stored item-major (as ``gen_synthetic`` makes them) and row-major."""
    rng = np.random.default_rng(seed)
    items = rng.standard_normal((n, d))
    items[rng.random((n, d)) < 0.5] = 0.0
    items[2] = 0.0  # an item with no stored value
    item_major = items.T
    return item_major, np.ascontiguousarray(item_major)


def test_dense_features_keep_item_major_input_and_copy_row_major_input():
    item_major, row_major = _both_layouts()
    assert item_major.T.flags.c_contiguous and row_major.flags.c_contiguous
    assert np.shares_memory(KernelOracle.from_dense_features(item_major)._feats, item_major)
    assert not np.shares_memory(KernelOracle.from_dense_features(row_major)._feats, row_major)


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.9, 0.1)])
def test_lookups_and_materialize_are_bitwise_equal_across_layouts(scale, shift):
    a, b = (KernelOracle.from_dense_features(f, scale, shift) for f in _both_layouts())
    everyone = np.arange(a.n)
    for j in range(a.n):
        assert [_bits(a.entry(i, j)) for i in everyone] == [_bits(b.entry(i, j)) for i in everyone]
        assert a.column(j, everyone).tobytes() == b.column(j, everyone).tobytes()
        assert a.column(j, slice(1, a.n)).tobytes() == b.column(j, slice(1, b.n)).tobytes()
    assert a.materialize().tobytes() == b.materialize().tobytes()


def test_sparse_columns_from_dense_are_the_same_for_either_layout():
    item_major, row_major = _both_layouts()
    a, b = SparseColumns.from_dense(item_major), SparseColumns.from_dense(row_major)
    assert a.dim == b.dim == 9 and a.ncols == b.ncols == 7
    assert a.indptr[2] == a.indptr[3]
    assert a.indptr.dtype == np.int64 and a.indices.dtype == np.uint32 and a.values.dtype == np.float64
    for name in ("indptr", "indices", "values"):
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert not np.shares_memory(a.values, item_major)
    assert a.to_dense().tobytes() == item_major.tobytes()


def test_wrapping_generated_features_allocates_well_under_one_feature_matrix():
    features = gen_synthetic(SyntheticSpec(n=200, d=300, seed=3))
    _, peak = traced_peak(KernelOracle.from_dense_features, features)
    assert peak <= features.nbytes / 4
    # The guard bites: a row-major copy of the same features is copied again.
    _, peak = traced_peak(KernelOracle.from_dense_features, np.ascontiguousarray(features))
    assert peak >= features.nbytes
