import pytest

from dppmap.pqueue import LazyMaxQueue
from dppmap.verify import check_pqueue


def test_tie_breaks_to_smaller_index():
    q = LazyMaxQueue.build([2.0, 2.0])
    assert q.pop_max() == (0, 2.0)
    assert q.pop_max() == (1, 2.0)


def test_version_invalidates_old_entries():
    q = LazyMaxQueue(3)
    q.push(1, 5.0)
    q.push(1, 3.0)
    assert q.pop_max() == (1, 3.0)
    with pytest.raises(IndexError):
        q.pop_max()


def test_exclusion_skips_the_max():
    q = LazyMaxQueue.build([1.0, 4.0, 2.0])
    q.exclude(1)
    assert q.pop_max() == (2, 2.0)


def test_peek_on_empty_is_none():
    q = LazyMaxQueue(2)
    assert q.peek_entry() is None


def test_pop_empty_raises():
    q = LazyMaxQueue(1)
    with pytest.raises(IndexError):
        q.pop_max()


def test_pops_skip_excluded_and_replaced_entries():
    q = LazyMaxQueue.build([1.0, 2.0, 3.0])
    q.exclude(0)
    assert q.pop_max() == (2, 3.0)
    q.push(2, 9.0)
    q.push(1, 4.0)  # re-push replaces, does not duplicate
    assert q.pop_max() == (2, 9.0)
    assert q.pop_max() == (1, 4.0)
    assert q.peek_entry() is None


def test_push_after_exclude_stays_dead():
    q = LazyMaxQueue(2)
    q.push(0, 1.0)
    q.exclude(0)
    q.push(0, 5.0)
    assert q.peek_entry() is None


def test_clear_drops_every_entry_counts_nothing_and_keeps_exclusions():
    q = LazyMaxQueue.build([1.0, 4.0, 2.0])
    q.exclude(1)
    q.clear()
    assert q.op_count == 3
    assert q.peek_entry() is None
    q.push(1, 9.0)
    q.push(0, 3.0)
    assert q.pop_max() == (0, 3.0)
    assert q.peek_entry() is None


def test_stale_entries_skipped_at_most_once():
    """Every dead heap record is discarded exactly once, so heap traffic is
    bounded by pushes."""
    q = LazyMaxQueue(4)
    pushes = 0
    for r in range(5):
        for i in range(4):
            q.push(i, float(r * 4 + i))
            pushes += 1
    pops = 0
    while True:
        try:
            q.pop_max()
            pops += 1
        except IndexError:
            break
    assert pops == 4  # one live entry per index survives
    assert len(q._heap) == 0  # everything else was discarded on the way


def test_differential_against_scan_model():
    result = check_pqueue(total_ops=100_000)
    assert result.ok, result.detail
