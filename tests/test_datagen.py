import hashlib

import numpy as np
import pytest

from dppmap import stream
from dppmap.datagen import SyntheticSpec, binarize_ratings, convert_netflix, gen_synthetic, read_triples
from dppmap.errors import NonFiniteInputError
from dppmap.stream import NORMAL_BLOCK, DecisionStream

from test_matrixio import columns_of, traced_peak
from test_stream import one_shot_normals


def columns_to_triples(cols):
    """Render sparse columns back to (user, item, rating=1.0) triples."""
    for item, (idx, val) in enumerate(columns_of(cols)):
        for user, value in zip(idx.tolist(), val.tolist()):
            yield user, item, value


def test_gen_deterministic():
    a = gen_synthetic(SyntheticSpec(n=3, d=3, seed=7))
    b = gen_synthetic(SyntheticSpec(n=3, d=3, seed=7))
    assert np.array_equal(a, b)
    c = gen_synthetic(SyntheticSpec(n=3, d=3, seed=8))
    assert not np.array_equal(a, c)


def test_gen_shape_and_default_d():
    assert gen_synthetic(SyntheticSpec(n=5, d=3, seed=0)).shape == (3, 5)
    assert gen_synthetic(SyntheticSpec(n=4, seed=0)).shape == (4, 4)


@pytest.mark.parametrize("n, d", [(2 ** 32, None), (2 ** 31, 2 ** 31)])
def test_gen_refuses_a_matrix_past_numpys_largest_array(n, d):
    """Refused before any draw, so nothing is allocated."""
    with pytest.raises(ValueError, match=f"n = {n} items of d = {n if d is None else d} float64 features"):
        gen_synthetic(SyntheticSpec(n=n, d=d))


def test_gen_mean_within_clt_bound():
    mat = gen_synthetic(SyntheticSpec(n=1000, d=1000, seed=1))
    assert abs(float(np.mean(mat))) <= 0.003  # 3 sigma of 1e6 standard normals


def test_gen_gram_diagonal_positive():
    mat = gen_synthetic(SyntheticSpec(n=50, d=50, seed=2))
    assert np.all(np.sum(mat * mat, axis=0) > 0)


def _write(tmp_path, text, name="r.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_toy_example(tmp_path):
    path = _write(tmp_path, "u1,m1,5\nu1,m2,3\nu2,m1,4\n")
    cols, idmap = binarize_ratings(read_triples(path), threshold=4)
    assert cols.ncols == 1 and cols.dim == 2  # m2 dropped as all-zero
    assert cols.indptr.tolist() == [0, 2]
    assert cols.indices.tolist() == [0, 1]
    assert cols.values.tolist() == [1.0, 1.0]
    assert idmap["items"] == {"m1": 0}
    assert idmap["users"] == {"u1": 0, "u2": 1}


def test_ingest_empty_errors(tmp_path):
    path = _write(tmp_path, "u1,m1,1\nu2,m2,2\n")
    with pytest.raises(ValueError, match="no items survive"):
        binarize_ratings(read_triples(path), threshold=4)


def test_ingest_threshold_zero_keeps_everything(tmp_path):
    path = _write(tmp_path, "u1,m1,1\nu2,m2,0\nu3,m1,3\n")
    cols, idmap = binarize_ratings(read_triples(path), threshold=0)
    assert cols.ncols == 2 and cols.dim == 3
    assert all(np.all(v == 1.0) for v in cols.values)


def test_ingest_header_autodetected(tmp_path):
    path = _write(tmp_path, "userId,movieId,rating,timestamp\n3,9,5,111\n4,9,4,222\n")
    cols, idmap = binarize_ratings(read_triples(path), threshold=4)
    assert cols.ncols == 1 and cols.dim == 2
    assert idmap["items"] == {"9": 0}


def test_a_header_after_blank_lines_is_still_the_header(tmp_path):
    path = _write(tmp_path, "\nuser,item,rating\nu1,m1,5\n")
    cols, idmap = binarize_ratings(read_triples(path), threshold=4)
    assert idmap["items"] == {"m1": 0} and idmap["users"] == {"u1": 0}
    path = _write(tmp_path, "\n \nuser,item,rating\nuser,item,rating\n")  # only the first row may be one
    with pytest.raises(ValueError, match=r"r\.csv:4: bad rating 'rating'"):
        binarize_ratings(read_triples(path))


def test_ingest_malformed_line_reports_number(tmp_path):
    path = _write(tmp_path, "1,2,5\n1,2\n")
    with pytest.raises(ValueError, match=":2"):
        binarize_ratings(read_triples(path))
    path = _write(tmp_path, "1,2,5\n3,4,bogus\n")
    with pytest.raises(ValueError, match="bad rating"):
        binarize_ratings(read_triples(path))


def test_ingest_out_of_range_warns(tmp_path):
    path = _write(tmp_path, "1,2,5\n1,3,42\n")
    with pytest.warns(UserWarning, match="r.csv:2: rating 42.0 outside"):
        binarize_ratings(read_triples(path))
    path = _write(tmp_path, "2:\n1,5,2005-01-01\n3:\n1,42,2005-01-02\n", name="mv.txt")
    with pytest.warns(UserWarning, match="mv.txt:4: rating 42.0 outside"):
        list(convert_netflix(path))


@pytest.mark.parametrize("name, text, where, raw", [
    ("r.csv", "u1,m1,5\nu2,m1,inf\n", "r.csv:2", "inf"),        # once a qualifying 1.0 entry
    ("r.csv", "u1,m1,5\nu1,m2,nan\n", "r.csv:2", "nan"),        # once silently dropped
    ("r.csv", "\nu1,m1,nan\nu2,m1,5\n", "r.csv:2", "nan"),      # a first row rated nan is data, not a header
    ("r.csv", "user,item,rating\nu1,m1,-1e999\n", "r.csv:2", "-1e999"),
    ("mv.txt", "12:\n101,5,2005-01-01\n102,NaN,2005-01-02\n", "mv.txt:3", "NaN"),
    ("mv.txt", "12:\n101,Infinity\n", "mv.txt:2", "Infinity"),
], ids=["triples-inf", "triples-nan", "triples-nan-first-row", "triples-overflow", "netflix-nan", "netflix-inf"])
def test_non_finite_ratings_are_refused_naming_the_line(tmp_path, recwarn, name, text, where, raw):
    path = _write(tmp_path, text, name=name)
    read = convert_netflix if name == "mv.txt" else read_triples
    with pytest.raises(NonFiniteInputError) as err:
        binarize_ratings(read(path))
    assert str(err.value) == f"{tmp_path / where}: non-finite rating {raw!r}"
    assert not recwarn.list  # refused, not warned about as out of range


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_a_non_finite_threshold_is_refused_before_any_triple(threshold):
    """Before, with ``drop_empty`` off, a NaN threshold kept every id, stored no entry and
    put a bare ``NaN`` in the id map."""
    def triples():
        raise AssertionError("a triple was read")
        yield

    with pytest.raises(NonFiniteInputError) as err:
        binarize_ratings(triples(), threshold, drop_empty=False)
    assert str(err.value) == f"rating threshold {threshold!r} is not finite"


def test_ingest_first_appearance_order(tmp_path):
    path = _write(tmp_path, "u9,mB,5\nu2,mA,5\nu9,mA,4\n")
    cols, idmap = binarize_ratings(read_triples(path), threshold=4)
    assert idmap["items"] == {"mB": 0, "mA": 1}
    assert idmap["users"] == {"u9": 0, "u2": 1}
    assert cols.indices[cols.indptr[1]:].tolist() == [0, 1]  # sorted user indices within a column


def test_ingest_duplicate_triples_deduped(tmp_path):
    path = _write(tmp_path, "u1,m1,5\nu1,m1,4\n")
    cols, _ = binarize_ratings(read_triples(path), threshold=4)
    assert cols.indptr.tolist() == [0, 1] and cols.indices.tolist() == [0]


def test_ingest_idempotent(tmp_path):
    path = _write(tmp_path, "u1,m1,5\nu2,m1,4\nu2,m2,5\nu3,m3,2\n")
    cols, _ = binarize_ratings(read_triples(path), threshold=4)
    rendered = "".join(f"{u},{m},{r}\n" for u, m, r in columns_to_triples(cols))
    path2 = _write(tmp_path, rendered, name="r2.csv")
    cols2, _ = binarize_ratings(read_triples(path2), threshold=1)
    assert cols2.ncols == cols.ncols and cols2.dim == cols.dim
    assert cols2.indptr.tolist() == cols.indptr.tolist()
    assert cols2.indices.tolist() == cols.indices.tolist()


def test_every_surviving_column_and_row_nonempty(tmp_path):
    path = _write(tmp_path, "u1,m1,5\nu1,m2,3\nu2,m1,4\nu3,m2,5\n")
    cols, _ = binarize_ratings(read_triples(path), threshold=4)
    assert (np.diff(cols.indptr) >= 1).all()
    assert set(cols.indices.tolist()) == set(range(cols.dim))


def test_netflix_adapter(tmp_path):
    path = tmp_path / "mv.txt"
    path.write_text("12:\n101,5,2005-01-01\n102,3,2005-01-02\n34:\n101,4,2005-02-01\n")
    triples = list(convert_netflix(path))
    assert triples == [("101", "12", 5.0), ("102", "12", 3.0), ("101", "34", 4.0)]
    bad = tmp_path / "bad.txt"
    bad.write_text("101,5,2005-01-01\n")
    with pytest.raises(ValueError, match="before any movie"):
        list(convert_netflix(bad))


def test_netflix_bad_rating_names_file_and_line(tmp_path):
    path = tmp_path / "mv.txt"
    path.write_text("12:\n101,5,2005-01-01\n102, five ,2005-01-02\n")
    with pytest.raises(ValueError, match=r"mv\.txt:3: bad rating 'five'"):
        list(convert_netflix(path))


def one_shot_features(n, d, seed):
    """``gen_synthetic`` as one normals draw reshaped item-major and transposed."""
    values = one_shot_normals(DecisionStream(seed), n * d)
    return values.reshape(n, d).T.copy()


@pytest.mark.parametrize("n, d", [
    (1, 1), (7, 1), (5, 7), (33, 17), (300, 300), (2000, 37),
    (3, 2 * NORMAL_BLOCK),          # one item per block of normals, d even
    (3, 2 * NORMAL_BLOCK + 1),      # items straddle blocks, d odd, n odd
    (9, NORMAL_BLOCK - 1),          # two items per block, odd d straddles pairs
    (40, 2 * NORMAL_BLOCK // 10),   # ten items per block, last block partial
])
def test_streamed_generation_keeps_the_one_shot_bits(n, d):
    got = gen_synthetic(SyntheticSpec(n=n, d=d, seed=n + d))
    want = one_shot_features(n, d, n + d)
    assert got.shape == (d, n) and got.T.flags.c_contiguous  # item-major: one row per item
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, d, digest", [
    (1000, 2000, "efa5258fd817f1c6388745c9bc47714a1035d8494b376534a84f2db63406da34"),
    (300, 300, "76ffbc50e12007a9bb03fda647788190fee70daee7b8c2ad89f6e0922a5c46bc"),
], ids=["random-sparse-run", "double-L"])
def test_the_benchmark_instances_keep_their_bytes(n, d, digest):
    """The features the two gated perfbench workloads build, at seed 1."""
    got = hashlib.sha256(gen_synthetic(SyntheticSpec(n=n, d=d, seed=1)).tobytes()).hexdigest()
    assert got == digest, ("the normals changed; if only the host did, this may be its libm's "
                           "log/cos/sin rounding, which the dppmap.stream docstring leaves unspecified")


@pytest.mark.parametrize("cpus", [1, 3])
def test_generation_holds_one_copy_plus_a_block_per_worker(monkeypatch, cpus):
    monkeypatch.setattr(stream, "_available_cpus", lambda: cpus)
    blocks = 5
    spec = SyntheticSpec(n=blocks, d=2 * NORMAL_BLOCK, seed=3)  # one block of normals per item
    gen_synthetic(spec)  # a first draw may import numpy.random, which is not generation's memory
    features, peak = traced_peak(gen_synthetic, spec)
    block_buffers = 4 * 8 * NORMAL_BLOCK  # u1, u2 and a block of values
    objects = 64 << 10  # generators, threads and array views
    assert peak <= features.nbytes + min(cpus, blocks) * block_buffers + objects
