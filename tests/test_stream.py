import math
import threading
import time

import numpy as np
import pytest

from dppmap import stream
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
    pool = np.arange(5)
    sample = s.sample_sorted(pool, 9)
    assert np.array_equal(sample, pool)
    assert s.uniform() == DecisionStream(6).uniform()


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
    assert streamed.uniform() == one_shot.uniform()


@pytest.fixture
def started_threads(monkeypatch):
    """The ``threading.Thread`` objects started while the test runs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def blocks_of(count):
    pairs = (count + 1) // 2
    return -(-pairs // NORMAL_BLOCK)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("count", [
    3 * BLOCK_VALUES,                   # 3 blocks: 1 + 2 over two workers
    5 * BLOCK_VALUES,                   # 5 blocks: 1 + 2 + 2 over three workers
    4 * BLOCK_VALUES + 2 * 1001 + 1,    # odd, with a partial last block
    BLOCK_VALUES,                       # exactly one block
    1001,                               # below one block
], ids=["3-blocks", "5-blocks", "odd-partial", "1-block", "part-block"])
def test_normals_keep_their_bits_and_words_on_any_worker_count(monkeypatch, started_threads, cpus, count):
    monkeypatch.setattr(stream, "_available_cpus", lambda: cpus)
    drawn, one_shot = DecisionStream(cpus), DecisionStream(cpus)
    drawn.uniform(), one_shot.uniform()  # start part-way into the stream
    got = drawn.normals(count)
    want = one_shot_normals(one_shot, count)
    assert got.tobytes() == want.tobytes()
    assert drawn.uniform() == one_shot.uniform()
    assert len(started_threads) == min(cpus, blocks_of(count)) - 1  # none for a one-block draw


@pytest.mark.parametrize("faulty_range", ["helper", "caller"])
def test_a_fault_in_any_range_reaches_the_caller_after_every_helper_ends(monkeypatch, faulty_range):
    """A helper's fault is raised by ``normals``, not swallowed with ``out`` part filled;
    a fault in the caller's own range still waits for the helpers."""
    monkeypatch.setattr(stream, "_available_cpus", lambda: 3)
    fill = stream._fill_range

    def filler(out, job):
        lo = job[2]
        if lo > 0:
            time.sleep(0.05)  # helpers end after the caller's own range
        if (lo > 0) == (faulty_range == "helper"):
            raise MemoryError(f"range from pair {lo}")
        fill(out, job)

    monkeypatch.setattr(stream, "_fill_range", filler)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="range from pair"):
        DecisionStream(1).normals(5 * BLOCK_VALUES)
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generator_random_is_the_uniform_word_map(seed):
    """``Generator(PCG64).random`` is ``(w >> 11) * 2**-53``, one word a value."""
    raw, drawn = np.random.PCG64(seed), np.random.PCG64(seed)
    want = (raw.random_raw(1001) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    got = np.random.Generator(drawn).random(1001)
    assert got.tobytes() == want.tobytes()
    assert drawn.random_raw() == raw.random_raw()


@pytest.mark.parametrize("k", [0, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1])
def test_the_u1_offset_rounds_as_half_a_word_step(k):
    """u1 as ``random()`` plus ``2**-54`` is ``((w >> 11) + 0.5) * 2**-53`` bit for bit,
    including the ties past 2**52 and the top word, which rounds to 1.0."""
    shifted = np.array([k], dtype=np.uint64)
    u1 = shifted.astype(np.float64) * 2.0 ** -53
    u1 += 0.5 * stream._INV_2_53
    want = (shifted.astype(np.float64) + 0.5) * 2.0 ** -53
    assert u1.tobytes() == want.tobytes()
