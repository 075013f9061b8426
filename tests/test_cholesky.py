import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppmap
from dppmap import reference
from dppmap.doublegreedy import fast_double_greedy
from dppmap.cholesky import SHORT_FOLD, WINDOW, CholeskyState
from dppmap.errors import NegativeDiagonalError, SingularPivotError, StaleRowError
from dppmap.kernel import KernelOracle, SparseColumns, seq_dot
from dppmap.stream import DecisionStream
from dppmap.verify import (
    check_gain_identity,
    check_objective_reconstruction,
    check_pythagoras,
    check_row_independence,
)

L22 = np.array([[4.0, 2.0], [2.0, 4.0]])


def _state(matrix, capacity):
    return CholeskyState(KernelOracle.from_dense_kernel(np.asarray(matrix, float)), capacity)


def test_update_row_hand_example():
    state = _state(L22, 2)
    state.commit(0)
    piv = state.update_row(1)
    assert state.factor[1, 0] == 1.0  # 2 / 2
    assert piv == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert state.marginal_gain(1) == pytest.approx(math.log(3.0), rel=1e-12)


def test_update_row_identity_is_zero():
    state = _state(np.eye(4), 2)
    state.commit(0)
    for i in (1, 2, 3):
        piv = state.update_row(i)
        assert state.factor[i, 0] == 0.0
        assert piv == 1.0


def test_update_row_fresh_is_noop():
    state = _state(L22, 2)
    state.commit(0)
    state.update_row(1)
    count = state.offdiag_count
    piv_before = float(state.pivots[1])
    assert state.update_row(1) == piv_before
    assert state.offdiag_count == count


def test_update_row_rejects_committed():
    state = _state(L22, 2)
    state.commit(0)
    with pytest.raises(ValueError, match="committed"):
        state.update_row(0)


def test_marginal_gain_boundaries():
    state = _state(np.eye(2), 1)
    assert state.marginal_gain(0) == 0.0  # pivot exactly 1
    state.pivots[0] = 0.0
    assert state.marginal_gain(0) == -math.inf
    state2 = _state(L22, 2)
    state2.commit(0)
    with pytest.raises(StaleRowError):
        state2.marginal_gain(1)  # stale: stamp 0 < |selection| 1


def test_commit_trace_matches_determinants():
    """Each commit records its (gain, item, objective) pick; the objective is the ln det reached."""
    state = _state(L22, 2)
    assert state.objective() == 0.0
    t = state.commit(0)
    assert t == 0
    assert state.picks[-1] == (pytest.approx(math.log(4.0), rel=1e-12), 0, pytest.approx(math.log(4.0), rel=1e-12))
    state.update_row(1)
    state.commit(1)
    assert state.picks[-1] == (pytest.approx(math.log(3.0), rel=1e-12), 1, pytest.approx(math.log(12.0), rel=1e-12))
    assert state.objective() == state.picks[-1][2]
    assert state.selected_pivots[0] == 2.0


def test_commit_requires_fresh_and_nonsingular():
    state = _state(L22, 2)
    state.commit(0)
    with pytest.raises(StaleRowError):
        state.commit(1)
    singular = _state(np.ones((2, 2)), 2)
    singular.commit(0)
    singular.update_row(1)
    with pytest.raises(SingularPivotError):
        singular.commit(1)


def test_commit_capacity_guard():
    state = _state(np.eye(3) * 2.0, 1)
    state.commit(0)
    state.update_row(1)
    with pytest.raises(ValueError, match="capacity"):
        state.commit(1)


def test_zero_diagonal_item_has_minus_inf_gain():
    mat = np.diag([4.0, 0.0])
    state = _state(mat, 1)
    assert state.pivots[1] == 0.0
    assert state.marginal_gain(1) == -math.inf


def test_negative_diagonal_rejected():
    with pytest.raises(NegativeDiagonalError, match="negative kernel diagonal at 1: -0.5"):
        _state(np.diag([1.0, -0.5]), 1)
    assert issubclass(NegativeDiagonalError, ValueError)


def test_offdiag_counter_counts_each_entry_once():
    rng = np.random.default_rng(6)
    root = rng.standard_normal((8, 8))
    state = _state(root.T @ root + np.eye(8), 4)
    for j in (2, 5, 7):
        state.update_row(j)
        state.commit(j)
    state.update_row(0)  # 3 columns in one call
    assert state.offdiag_count == 0 + 1 + 2 + 3
    state.update_row(0)  # no-op
    assert state.offdiag_count == 6


def test_lazy_diag_defers_kernel_lookups():
    oracle = KernelOracle.from_dense_kernel(np.eye(5) * 4.0)
    state = CholeskyState(oracle, 2, lazy_diag=True)
    assert oracle.eval_count == 0
    assert state.touch(3) == 2.0
    assert oracle.eval_count == 1
    state.touch(3)
    assert oracle.eval_count == 1


def test_gain_identity_property():
    result = check_gain_identity(instances=15)
    assert result.ok, result.detail


def test_pythagoras_property():
    result = check_pythagoras(instances=5)
    assert result.ok, result.detail


def test_row_independence_bitwise():
    result = check_row_independence()
    assert result.ok, result.detail


def test_objective_reconstruction():
    result = check_objective_reconstruction(instances=5)
    assert result.ok, result.detail


def test_prop1_against_reference_random():
    """Fresh pivots reproduce brute-force gains on a committed prefix."""
    rng = np.random.default_rng(11)
    root = rng.standard_normal((10, 10))
    mat = root.T @ root
    oracle = KernelOracle.from_dense_kernel(mat)
    state = CholeskyState(oracle, 5)
    for _ in range(5):
        base = reference.log_det(mat, state.selection)
        for i in range(10):
            if state.in_selection[i]:
                continue
            state.update_row(i)
            brute = reference.log_det(mat, list(state.selection) + [i]) - base
            assert state.marginal_gain(i) == pytest.approx(brute, rel=1e-9, abs=1e-9)
        fresh = [i for i in range(10) if not state.in_selection[i]]
        state.commit(max(fresh, key=lambda i: state.pivots[i]))


def _committed_states(lazy_diag=False):
    """Two states over one B-input kernel with the same commits: one to prefetch, one scalar."""
    rng = np.random.default_rng(21)
    feats = rng.standard_normal((9, 16))
    feats[rng.random(feats.shape) < 0.3] = 0.0
    oracle = KernelOracle.from_dense_features(feats, 0.9, 0.1)
    return [CholeskyState(oracle, 6, lazy_diag=lazy_diag) for _ in range(2)]


def test_prefetch_then_update_row_is_bitwise_scalar():
    fetched, scalar = _committed_states()
    for c, lo in zip((4, 11, 0, 7, 15), (0, 9, 3, 12, 16)):
        for state in (fetched, scalar):
            state.update_row(c)
            state.commit(c)
        fetched.prefetch(lo)
    for state in (fetched, scalar):
        for i in range(16):
            if not state.in_selection[i]:
                state.update_row(i)
    assert fetched.factor.tobytes() == scalar.factor.tobytes()
    assert fetched.pivots.tobytes() == scalar.pivots.tobytes()
    assert fetched.stamps.tobytes() == scalar.stamps.tobytes()
    assert fetched.offdiag_count == scalar.offdiag_count


def test_prefetch_moves_no_stamp_and_counts_nothing():
    state, _ = _committed_states()
    for c in (2, 9):
        state.update_row(c)
        state.commit(c)
    evals, offdiag = state.oracle.eval_count, state.offdiag_count
    state.prefetch(0)
    assert state.offdiag_count == offdiag
    assert not state.stamps[[0, 1, 3]].any()
    assert state.oracle.eval_count == evals + 2 * 14  # two columns for the 14 uncommitted rows
    with pytest.raises(StaleRowError):
        state.marginal_gain(0)
    state.update_row(0)
    assert state.offdiag_count == offdiag + 2
    assert state.oracle.eval_count == evals + 2 * 14  # adopting computes nothing
    state.prefetch(0)  # nothing missing
    state.prefetch(16)  # no rows
    assert state.oracle.eval_count == evals + 2 * 14


def test_prefetch_skips_committed_rows_and_initializes_lazy_pivots():
    state, scalar = _committed_states(lazy_diag=True)
    for s in (state, scalar):
        s.touch(5)
        s.commit(5)
    state.prefetch(3)
    assert state.factor[5].tobytes() == scalar.factor[5].tobytes()
    assert state._diag_ready[3:].all() and not state._diag_ready[:3].any()
    for i in (3, 4, 6, 15):
        assert state.pivots[i] != scalar.touch(i)
        assert state.update_row(i) == scalar.update_row(i)


def _in_order_oracle(kind, n, shift=0.5):
    """A positive definite kernel on ``n`` items; "L-signed-zero" holds ``-0.0`` off the diagonal.

    In fast double greedy the default shift sends items to both factors, and a shift of 2.0 grows the
    selection at every item.
    """
    rng = np.random.default_rng(n)
    d = n + 3
    feats = rng.standard_normal((d, n)) / math.sqrt(d)
    if kind == "B":
        return KernelOracle.from_dense_features(feats, 1.0, shift)
    if kind == "L":
        return KernelOracle.from_dense_kernel(KernelOracle.from_dense_features(feats).materialize(), 1.0, shift)
    feats *= rng.random((d, n)) < (0.3 if kind == "sparse" else 0.05)
    if kind == "sparse":
        return KernelOracle.from_sparse_features(SparseColumns.from_dense(feats), 3.0, shift)
    matrix = KernelOracle.from_dense_features(feats).materialize()
    assert (matrix == 0.0).any()
    return KernelOracle.from_dense_kernel(np.where(matrix == 0.0, -0.0, matrix), 20.0, 0.5)


def _in_order_run(oracle, prefetch, lazy_diag=False):
    """Double greedy's schedule: visit items in order, commit two in three, prefetch after each commit."""
    n = oracle.n
    commits = [i for i in range(n) if i % 3 != 1]
    state = CholeskyState(oracle, len(commits), lazy_diag=lazy_diag)
    for i in range(n):
        state.update_row(i)
        if i in commits:
            state.commit(i)
            if prefetch:
                state.prefetch(i + 1)
    for i in range(n):
        if not state.in_selection[i]:
            state.update_row(i)
    return state


@pytest.mark.parametrize("kind", ["B", "L", "sparse", "L-signed-zero"])
@pytest.mark.parametrize("n", [WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 5])
def test_in_order_prefetch_is_bitwise_generic_and_scalar(kind, n, monkeypatch):
    in_order_calls = []
    cached = CholeskyState._prefetch_in_order

    def spy(self, lo):
        in_order_calls.append(lo)
        return cached(self, lo)

    monkeypatch.setattr(CholeskyState, "_prefetch_in_order", spy)
    fast = _in_order_run(_in_order_oracle(kind, n), prefetch=True)
    cached_lo = [i + 1 for i in fast.selection if i + 1 < n]  # item n - 1 leaves no rows to prefetch
    assert in_order_calls == cached_lo
    monkeypatch.setattr(CholeskyState, "_in_order", lambda self, lo: False)
    generic = _in_order_run(_in_order_oracle(kind, n), prefetch=True)
    scalar = _in_order_run(_in_order_oracle(kind, n), prefetch=False)
    assert in_order_calls == cached_lo
    if kind == "L-signed-zero":
        assert np.signbit(scalar.factor[scalar.factor == 0.0]).any()
    for other in (generic, scalar):
        assert fast.factor.tobytes() == other.factor.tobytes()
        assert fast.pivots.tobytes() == other.pivots.tobytes()
        assert fast.stamps.tobytes() == other.stamps.tobytes()
        assert fast.offdiag_count == other.offdiag_count
    assert fast.oracle.eval_count == generic.oracle.eval_count


def test_in_order_prefetch_rebuilds_after_an_interruption():
    """A commit without prefetch, or a generic one, leaves the cache behind; the next in-order prefetch rebuilds it."""
    n = 2 * WINDOW + 5
    oracle = _in_order_oracle("B", n)
    state = CholeskyState(oracle, n)
    for i in range(40):
        state.update_row(i)
        state.commit(i)
        if i == 10:
            continue  # no prefetch: the next prefetch sweeps two columns generically
        state.prefetch(i + 1)
        assert state._dots_cols == (10 if i == 11 else i + 1)  # the generic sweep leaves the cache as it was
    assert state._dots_at == 12  # rebuilt for item 12, within the old window
    scalar = CholeskyState(oracle, n)
    for i in range(40):
        scalar.update_row(i)
        scalar.commit(i)
    for s in (state, scalar):
        for i in range(40, n):
            s.update_row(i)
    assert state.factor.tobytes() == scalar.factor.tobytes()
    assert state.pivots.tobytes() == scalar.pivots.tobytes()


def test_every_cache_entry_a_prefetch_reads_is_seq_dot_and_none_is_negative_zero(monkeypatch):
    """The einsum outer products may give +0.0 where a multiply gives -0.0.  The cache is a left fold
    from +0.0, so it never holds -0.0, and the sign of a zero product cannot reach a sum it is read for."""
    reads = []
    write = CholeskyState._write_column

    def checked(self, t, rows, dots, out=None):
        if out is not None:  # the in-order path, reading one cache row for rows lo..n-1
            jt = self.selection[t]
            want = [seq_dot(self.factor[r, :t], self.factor[jt, :t]) for r in range(rows.start, rows.stop)]
            assert np.array(want).tobytes() == dots.tobytes(), t
            assert not np.signbit(self._dots[self._dots == 0.0]).any(), t
            reads.append((self._dots_at, self._dots_lo))
        return write(self, t, rows, dots, out)

    monkeypatch.setattr(CholeskyState, "_write_column", checked)
    state = _in_order_run(_in_order_oracle("L-signed-zero", 2 * WINDOW + 5), prefetch=True)
    assert np.signbit(state.factor[state.factor == 0.0]).any()  # so some products are -0.0
    assert any(at > 0 and lo > at for at, lo in reads)  # reads after a rebuild at a > 0 and further folds
    assert not np.signbit(state._dots[state._dots == 0.0]).any()


def _scanned_in_order(state, lo):
    """The in-order test by two O(n) scans, the reference the O(1) record must answer like."""
    m = len(state.selection)
    return (lo < state.n and m > 0 and state.selection[-1] == lo - 1
            and not state.in_selection[lo:].any() and bool((state._ready[lo:] == m - 1).all()))


@pytest.fixture
def in_order_answers(monkeypatch):
    """``(_in_order(lo), the scanned answer)`` at every prefetch, in call order."""
    answers = []
    prefetch = CholeskyState.prefetch

    def checked(self, lo):
        answers.append((self._in_order(lo), _scanned_in_order(self, lo)))
        return prefetch(self, lo)

    monkeypatch.setattr(CholeskyState, "prefetch", checked)
    return answers


@pytest.mark.parametrize("kind", ["B", "L", "sparse"])
@pytest.mark.parametrize("shift, grow_only", [(2.0, True), (0.5, False)], ids=["grow-only", "both-sides"])
def test_in_order_mark_answers_like_the_scans_in_double_greedy(kind, shift, grow_only, in_order_answers):
    oracle = _in_order_oracle(kind, 2 * WINDOW + 12, shift)
    rep = fast_double_greedy(oracle, DecisionStream(1))
    assert (len(rep.selection) == oracle.n) == grow_only and rep.selection
    assert len(in_order_answers) == oracle.n
    assert all(got == want for got, want in in_order_answers)
    assert sum(got for got, _ in in_order_answers) == oracle.n - 1  # all but the prefetch past item n - 1


@pytest.mark.parametrize("kind", ["B", "L", "sparse"])
@pytest.mark.parametrize("shift", [2.0, 0.5], ids=["grow-only", "both-sides"])
def test_double_greedy_never_scans_for_the_in_order_answer(kind, shift, monkeypatch):
    """Each prefetch of fast double greedy is answered by the dot cache's record, never by the scans."""
    scans = []
    prefetch = CholeskyState.prefetch

    def counted(self, lo):
        m = len(self.selection)
        newest = lo < self.n and m > 0 and self.selection[-1] == lo - 1
        scans.append(newest and not (self._dots_cols == m - 1 and self._dots_lo < lo))
        return prefetch(self, lo)

    monkeypatch.setattr(CholeskyState, "prefetch", counted)
    oracle = _in_order_oracle(kind, 2 * WINDOW + 12, shift)
    rep = fast_double_greedy(oracle, DecisionStream(1))
    assert (len(rep.selection) == oracle.n) == (shift == 2.0)
    assert len(scans) == oracle.n and not any(scans)


def test_in_order_mark_answers_like_the_scans_on_the_verify_schedules(in_order_answers):
    assert check_row_independence().ok
    assert all(got == want for got, want in in_order_answers)
    assert {got for got, _ in in_order_answers} == {True, False}


def test_in_order_mark_answers_like_the_scans_on_a_lazy_diagonal(in_order_answers):
    n = WINDOW + 9
    lazy = _in_order_run(_in_order_oracle("L", n), prefetch=True, lazy_diag=True)
    assert all(got == want for got, want in in_order_answers)
    assert sum(got for got, _ in in_order_answers) == len(lazy.selection) - 1
    eager = _in_order_run(_in_order_oracle("L", n), prefetch=True)
    assert lazy.factor.tobytes() == eager.factor.tobytes()
    assert lazy.pivots.tobytes() == eager.pivots.tobytes()


def test_in_order_mark_is_cleared_by_a_skipping_sweep_and_a_scalar_catch_up(in_order_answers):
    n = 20
    oracle = _in_order_oracle("B", n)
    state = CholeskyState(oracle, n)
    for i, catch_up, starts in ((0, (), (1,)), (1, (), (2,)),
                                (10, (), (3,)),    # a generic sweep of rows 3..19 that skips committed row 10
                                (5, (), (6,)),     # item 5 is the newest commit, but row 10 is committed
                                (12, (), (13,)),
                                (13, (15,), (14,)),  # row 15 catches up alone, so rows 14..19 are not level
                                (14, (), (15,)),
                                (15, (), (0, 16))):  # a generic sweep writes item 15's column before rows 16..19 ask
        state.update_row(i)
        state.commit(i)
        for r in catch_up:
            state.update_row(r)
        for lo in starts:
            state.prefetch(lo)
    assert in_order_answers == [(True, True), (True, True), (False, False), (False, False),
                                (True, True), (False, False), (True, True), (False, False), (False, False)]
    scalar = CholeskyState(oracle, n)
    for i in state.selection:
        scalar.update_row(i)
        scalar.commit(i)
    for s in (state, scalar):
        for i in range(n):
            if not s.in_selection[i]:
                s.update_row(i)
    assert state.factor.tobytes() == scalar.factor.tobytes()
    assert state.pivots.tobytes() == scalar.pivots.tobytes()


SCHEDULE_EXAMPLES = 100  # about 2 s of tier-1; every example ends with a byte comparison against the scalar schedule


@functools.cache
def _schedule_oracle(kind, n):
    return _in_order_oracle(kind, n)


# three in four commits take a successor of the newest commit, skipping `pick % 8`; the rest any live item
_COMMIT = st.tuples(st.sampled_from(["next", "next", "next", "any"]), st.integers(0, 2 * WINDOW + 5))
_AFTER = st.lists(st.one_of(st.tuples(st.just("in-order"), st.just(0)),  # prefetch from the newest commit + 1
                            st.tuples(st.just("prefetch"), st.integers(0, 2 * WINDOW + 5)),
                            st.tuples(st.just("catch-up"), st.integers(0, 2 * WINDOW + 5))), max_size=3)


@settings(max_examples=SCHEDULE_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["B", "L", "sparse"]), st.integers(1, 2 * WINDOW + 5),
       st.lists(st.tuples(_COMMIT, _AFTER, st.booleans()), max_size=48))
def test_in_order_answers_like_the_scans_on_random_schedules(kind, n, steps):
    """Random interleavings of commits, prefetches from any start (several per commit) and scalar
    catch-ups: each prefetch's in-order answer equals the scans', and the values the scalar schedule's.
    A step may end as double greedy's does, with a prefetch from the newest commit + 1."""
    oracle = _schedule_oracle(kind, n)
    state, scalar = CholeskyState(oracle, n), CholeskyState(oracle, n)
    for (how, pick), after, in_order in steps:
        live = np.flatnonzero(~state.in_selection)
        if not live.size:
            break
        if how == "next":
            ahead = live[live > (state.selection[-1] if state.selection else -1)]
            c = int(ahead[min(pick % 8, ahead.size - 1)] if ahead.size else live[0])
        else:
            c = int(live[pick % live.size])
        for s in (state, scalar):
            s.update_row(c)
            s.commit(c)
        for op, value in after + [("in-order", 0)] * in_order:
            if op == "catch-up":
                live = np.flatnonzero(~state.in_selection)
                if live.size:
                    state.update_row(int(live[value % live.size]))
                continue
            lo = state.selection[-1] + 1 if op == "in-order" else min(value, n)
            assert state._in_order(lo) == _scanned_in_order(state, lo), (op, lo)
            state.prefetch(lo)
    for s in (state, scalar):
        for i in np.flatnonzero(~s.in_selection):
            s.update_row(int(i))
    assert state.factor.tobytes() == scalar.factor.tobytes()
    assert state.pivots.tobytes() == scalar.pivots.tobytes()
    assert state.stamps.tobytes() == scalar.stamps.tobytes()


def _seq_dot_row(state, i):
    """Row ``i``'s factor entries and pivot from scratch, with each dot taken by ``seq_dot`` over numpy slices."""
    oracle = state.oracle
    row = np.zeros(state.capacity)
    piv = math.sqrt(oracle.entry(i, i))
    for t, jt in enumerate(state.selection):
        val = (oracle.entry(i, jt) - seq_dot(row[:t], state.factor[jt, :t])) / state.selected_pivots[t]
        row[t] = val
        piv = math.sqrt(max(piv * piv - val * val, 0.0))
    return row, piv


def _tiny_overlap_kernel(seed, n=10):
    """Unit diagonal and off-diagonals near 1e-155 or 1e-170, some of them -0.0: factor entries
    are tiny, so products of two of them are subnormal or underflow to a signed zero."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.standard_normal((n, n)) * rng.choice([1e-155, 1e-170], (n, n)), 1)
    upper[rng.random((n, n)) < 0.15] = -0.0
    kernel = np.eye(n) + upper + upper.T
    kernel[np.tril_indices(n, -1)] = kernel.T[np.tril_indices(n, -1)]
    return kernel


@pytest.mark.parametrize("seed", range(4))
def test_python_float_catch_up_is_bitwise_seq_dot(seed):
    """Catch-ups of 0 to 6 columns, from a row's first column (t = 0) or part-way, equal the
    ``seq_dot`` fold bit for bit, also where products are -0.0 or subnormal."""
    kernel = _tiny_overlap_kernel(seed)
    # Row 4's first column is -0.0 - 0.0; row 6's second is -0.0 less a fold of the one product
    # -0.0 * 1e-155, which seq_dot's accumulate leaves at -0.0 until its + 0.0.
    for i, j, value in ((4, 0, -0.0), (6, 0, -0.0), (3, 0, 1e-155), (6, 3, -0.0)):
        kernel[i, j] = kernel[j, i] = value
    state = CholeskyState(KernelOracle.from_dense_kernel(kernel), 6)
    for step, j in enumerate((0, 3, 1, 7, 2, 5)):
        state.update_row(j)
        state.commit(j)
        if step == 2:
            state.update_row(8)  # row 8 later catches up from column 3
    products = []
    for i in (4, 6, 8, 9):
        state.update_row(i)
        row, piv = _seq_dot_row(state, i)
        assert state.factor[i].tobytes() == row.tobytes(), i
        assert np.float64(state.pivots[i]).tobytes() == np.float64(piv).tobytes(), i
        for t, jt in enumerate(state.selection):
            products.extend((row[:t] * state.factor[jt, :t]).tolist())
    zeros = [p for p in products if p == 0.0]
    assert any(math.copysign(1.0, p) < 0 for p in zeros) and any(0.0 < abs(p) < 2.3e-308 for p in products)


@pytest.mark.parametrize("tiny", [False, True])
def test_catch_ups_across_the_short_fold_length_are_bitwise_seq_dot(tiny):
    """Catch-ups that fold in Python floats only, cross ``SHORT_FOLD`` part-way, or start past it."""
    n, m = 2 * SHORT_FOLD + 16, SHORT_FOLD + 8
    if tiny:
        kernel = _tiny_overlap_kernel(5, n)
    else:
        root = np.random.default_rng(5).standard_normal((n, n))
        kernel = root.T @ root / n + np.eye(n)
    state = CholeskyState(KernelOracle.from_dense_kernel(kernel), m)
    early, late = m, m + 1
    for step in range(m):
        if step == SHORT_FOLD - 4:
            state.update_row(early)  # later crosses SHORT_FOLD
        if step == SHORT_FOLD + 3:
            state.update_row(late)   # later starts past it
        state.update_row(step)
        state.commit(step)
    for i in (early, late, m + 2):
        state.update_row(i)
        row, piv = _seq_dot_row(state, i)
        assert state.factor[i].tobytes() == row.tobytes(), i
        assert np.float64(state.pivots[i]).tobytes() == np.float64(piv).tobytes(), i


def test_only_commit_judges_a_pivot():
    """A pivot is judged once, when its item is committed; after that it is only a denominator."""
    raisers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name == "SingularPivotError":
                    raisers.add(".".join(scope))
            visit(child, scope)

    for path in Path(dppmap.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    assert raisers == {"cholesky.CholeskyState.commit"}
