import numpy as np
import pytest

from dppmap.stream import DecisionStream


def test_same_seed_same_draws():
    a = DecisionStream(123)
    b = DecisionStream(123)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]
    assert [a.uniform_int(7) for _ in range(50)] == [b.uniform_int(7) for _ in range(50)]
    assert np.array_equal(a.normals(101), b.normals(101))


def test_uniform_range():
    s = DecisionStream(1)
    draws = [s.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in draws)


def test_uniform_int_range_and_coverage():
    s = DecisionStream(2)
    draws = [s.uniform_int(5) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    s2 = DecisionStream(3)
    assert all(s2.uniform_int(1) == 0 for _ in range(10))
    with pytest.raises(ValueError):
        s2.uniform_int(0)


def test_rank_is_one_based():
    s = DecisionStream(4)
    draws = {s.rank(3) for _ in range(300)}
    assert draws == {1, 2, 3}


def test_sample_sorted_subset_properties():
    s = DecisionStream(5)
    pool = np.arange(10, 30)
    sample = s.sample_sorted(pool, 6)
    assert sample.size == 6
    assert len(set(sample.tolist())) == 6
    assert set(sample.tolist()) <= set(pool.tolist())


def test_sample_sorted_whole_pool_costs_nothing():
    s = DecisionStream(6)
    before = s.words_drawn
    pool = np.arange(5)
    sample = s.sample_sorted(pool, 9)
    assert np.array_equal(sample, pool)
    assert s.words_drawn == before


def test_sample_sorted_uniformity_smoke():
    # each element of a 6-pool should appear in a 3-sample about half the time
    s = DecisionStream(7)
    hits = np.zeros(6)
    trials = 4000
    for _ in range(trials):
        for idx in s.sample_sorted(np.arange(6), 3):
            hits[idx] += 1
    freq = hits / trials
    assert np.all(np.abs(freq - 0.5) < 0.05)


def test_normals_moments():
    s = DecisionStream(8)
    z = s.normals(200_000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.std(z)) - 1.0) < 0.01


def test_normals_odd_count():
    s = DecisionStream(9)
    assert s.normals(7).shape == (7,)
    assert s.normals(0).shape == (0,)
