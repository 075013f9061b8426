import numpy as np
import pytest

from dppmap.datagen import (
    RatingsSpec,
    SyntheticSpec,
    convert_netflix,
    gen_synthetic,
    ingest_ratings,
)


def columns_to_triples(cols):
    """Render sparse columns back to (user, item, rating=1.0) triples."""
    for item, (idx, val) in enumerate(zip(cols.indices, cols.values)):
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
    cols, idmap = ingest_ratings(RatingsSpec(path=path, threshold=4))
    assert cols.ncols == 1 and cols.dim == 2  # m2 dropped as all-zero
    assert cols.indices[0].tolist() == [0, 1]
    assert cols.values[0].tolist() == [1.0, 1.0]
    assert idmap["items"] == {"m1": 0}
    assert idmap["users"] == {"u1": 0, "u2": 1}


def test_ingest_empty_errors(tmp_path):
    path = _write(tmp_path, "u1,m1,1\nu2,m2,2\n")
    with pytest.raises(ValueError, match="no items survive"):
        ingest_ratings(RatingsSpec(path=path, threshold=4))


def test_ingest_threshold_zero_keeps_everything(tmp_path):
    path = _write(tmp_path, "u1,m1,1\nu2,m2,0\nu3,m1,3\n")
    cols, idmap = ingest_ratings(RatingsSpec(path=path, threshold=0))
    assert cols.ncols == 2 and cols.dim == 3
    assert all(np.all(v == 1.0) for v in cols.values)


def test_ingest_header_autodetected(tmp_path):
    path = _write(tmp_path, "userId,movieId,rating,timestamp\n3,9,5,111\n4,9,4,222\n")
    cols, idmap = ingest_ratings(RatingsSpec(path=path, threshold=4))
    assert cols.ncols == 1 and cols.dim == 2
    assert idmap["items"] == {"9": 0}


def test_ingest_malformed_line_reports_number(tmp_path):
    path = _write(tmp_path, "1,2,5\n1,2\n")
    with pytest.raises(ValueError, match=":2"):
        ingest_ratings(RatingsSpec(path=path))
    path = _write(tmp_path, "1,2,5\n3,4,bogus\n")
    with pytest.raises(ValueError, match="bad rating"):
        ingest_ratings(RatingsSpec(path=path))


def test_ingest_out_of_range_warns(tmp_path):
    path = _write(tmp_path, "1,2,5\n1,3,42\n")
    with pytest.warns(UserWarning, match="r.csv:2: rating 42.0 outside"):
        ingest_ratings(RatingsSpec(path=path))
    path = _write(tmp_path, "2:\n1,5,2005-01-01\n3:\n1,42,2005-01-02\n", name="mv.txt")
    with pytest.warns(UserWarning, match="mv.txt:4: rating 42.0 outside"):
        convert_netflix([path])


def test_ingest_first_appearance_order(tmp_path):
    path = _write(tmp_path, "u9,mB,5\nu2,mA,5\nu9,mA,4\n")
    cols, idmap = ingest_ratings(RatingsSpec(path=path, threshold=4))
    assert idmap["items"] == {"mB": 0, "mA": 1}
    assert idmap["users"] == {"u9": 0, "u2": 1}
    assert cols.indices[1].tolist() == [0, 1]  # sorted user indices within a column


def test_ingest_duplicate_triples_deduped(tmp_path):
    path = _write(tmp_path, "u1,m1,5\nu1,m1,4\n")
    cols, _ = ingest_ratings(RatingsSpec(path=path, threshold=4))
    assert cols.indices[0].tolist() == [0]


def test_ingest_idempotent(tmp_path):
    path = _write(tmp_path, "u1,m1,5\nu2,m1,4\nu2,m2,5\nu3,m3,2\n")
    cols, _ = ingest_ratings(RatingsSpec(path=path, threshold=4))
    rendered = "".join(f"{u},{m},{r}\n" for u, m, r in columns_to_triples(cols))
    path2 = _write(tmp_path, rendered, name="r2.csv")
    cols2, _ = ingest_ratings(RatingsSpec(path=path2, threshold=1))
    assert cols2.ncols == cols.ncols and cols2.dim == cols.dim
    for a, b in zip(cols.indices, cols2.indices):
        assert a.tolist() == b.tolist()


def test_every_surviving_column_and_row_nonempty(tmp_path):
    path = _write(tmp_path, "u1,m1,5\nu1,m2,3\nu2,m1,4\nu3,m2,5\n")
    cols, _ = ingest_ratings(RatingsSpec(path=path, threshold=4))
    assert all(idx.size >= 1 for idx in cols.indices)
    covered = set()
    for idx in cols.indices:
        covered |= set(idx.tolist())
    assert covered == set(range(cols.dim))


def test_netflix_adapter(tmp_path):
    path = tmp_path / "mv.txt"
    path.write_text("12:\n101,5,2005-01-01\n102,3,2005-01-02\n34:\n101,4,2005-02-01\n")
    triples = convert_netflix([path])
    assert triples == [("101", "12", 5.0), ("102", "12", 3.0), ("101", "34", 4.0)]
    bad = tmp_path / "bad.txt"
    bad.write_text("101,5,2005-01-01\n")
    with pytest.raises(ValueError, match="before any movie"):
        convert_netflix([bad])
