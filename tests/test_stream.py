import math

import numpy as np
import pytest

from dppmap.stream import NORMAL_BLOCK, DecisionStream


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


def one_shot_normals(stream: DecisionStream, count: int) -> np.ndarray:
    """The reference Box-Muller draw: one vectorized pass over all ``2 * pairs`` words.

    u1 from the first ``pairs`` words, u2 from the next ``pairs``, cosines at
    even and sines at odd places, with no blocks.
    """
    pairs = (count + 1) // 2
    if pairs == 0:
        return np.empty(0)
    w = stream._bits.random_raw(2 * pairs)
    stream.words_drawn += 2 * pairs
    u1 = ((w[:pairs] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    u2 = (w[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


BLOCK_VALUES = 2 * NORMAL_BLOCK


@pytest.mark.parametrize("count", [0, 1, 2, 7, 1001, BLOCK_VALUES - 1, BLOCK_VALUES,
                                   BLOCK_VALUES + 1, BLOCK_VALUES + 2, 3 * BLOCK_VALUES + 5])
def test_streamed_normals_keep_the_one_shot_bits_and_words(count):
    streamed, one_shot = DecisionStream(11), DecisionStream(11)
    streamed.uniform(), one_shot.uniform()  # start part-way into the stream
    got = streamed.normals(count)
    want = one_shot_normals(one_shot, count)
    assert got.shape == (count,)
    assert got.tobytes() == want.tobytes()
    assert streamed.words_drawn == one_shot.words_drawn
    assert streamed.uniform() == one_shot.uniform()
