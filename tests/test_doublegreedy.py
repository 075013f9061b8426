import itertools
import math
import re

import numpy as np
import pytest

from dppmap import doublegreedy
from dppmap import report as report_module
from dppmap.bench import build_synthetic_oracle
from dppmap.cholesky import CholeskyState
from dppmap.doublegreedy import fast_double_greedy, jacobi_gain_check, naive_double_greedy
from dppmap.errors import SelectionDriftError, SingularKernelError
from dppmap.kernel import KernelOracle, SparseColumns
from dppmap.stream import DecisionStream
from dppmap.verify import check_double, check_jacobi

L21 = np.array([[2.0, 1.0], [1.0, 2.0]])


def test_jacobi_hand_example():
    lhs, rhs = jacobi_gain_check(L21, [], 0)
    want = math.log(2.0 / 3.0)
    assert lhs == pytest.approx(want, rel=1e-12)
    assert rhs == pytest.approx(want, rel=1e-12)


def test_jacobi_scaled_identity():
    for c in (0.5, 2.0, 7.0):
        mat = c * np.eye(4)
        for i in range(4):
            lhs, rhs = jacobi_gain_check(mat, [1] if i != 1 else [2], i)
            assert lhs == pytest.approx(-math.log(c), rel=1e-12)
            assert rhs == pytest.approx(-math.log(c), rel=1e-12)


def test_jacobi_random_pd():
    rng = np.random.default_rng(30)
    for _ in range(20):
        root = rng.standard_normal((6, 6))
        mat = root.T @ root + 0.5 * np.eye(6)
        subset = sorted(rng.permutation(6)[: rng.integers(0, 4)].tolist())
        i = next(j for j in range(6) if j not in subset)
        lhs, rhs = jacobi_gain_check(mat, subset, i)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


def test_jacobi_rejects_member():
    with pytest.raises(ValueError, match="already"):
        jacobi_gain_check(L21, [0], 0)


def test_fast_double_hand_trace():
    # both remove-gains vanish, so the run is deterministic: S = {0, 1}
    oracle = KernelOracle.from_dense_kernel(L21)
    rep = fast_double_greedy(oracle, DecisionStream(0))
    assert rep.selection == [0, 1]
    (a0, b0), (a1, b1) = rep.extras["ab_gains"]
    assert a0 == pytest.approx(math.log(2.0), rel=1e-12)
    assert max(b0, 0.0) == 0.0
    assert a1 == pytest.approx(math.log(3.0 / 2.0), rel=1e-12)
    assert max(b1, 0.0) == 0.0
    assert rep.final_objective == pytest.approx(math.log(3.0), rel=1e-10)


def test_monotone_diagonal_selects_everything():
    mat = np.diag([2.0, 3.0, 1.5, 8.0])
    for seed in range(5):
        oracle = KernelOracle.from_dense_kernel(mat)
        rep = fast_double_greedy(oracle, DecisionStream(seed))
        assert rep.selection == [0, 1, 2, 3]


def test_coupled_naive_fast_identical():
    for t in range(15):
        n = 4 + t
        oracle = build_synthetic_oracle(n, n + 2, 40 + t, "B", scale=0.9, shift=0.1)
        seed = 1000 + t
        rep_f = fast_double_greedy(oracle, DecisionStream(seed))
        rep_n = naive_double_greedy(oracle, DecisionStream(seed))
        assert rep_f.selection == rep_n.selection, f"t={t}"
        for (fa, fb), (na, nb) in zip(rep_f.extras["ab_gains"], rep_n.extras["ab_gains"]):
            assert fa == pytest.approx(na, rel=1e-8, abs=1e-8)
            assert fb == pytest.approx(nb, rel=1e-8, abs=1e-8)


def test_probability_normalization():
    oracle = build_synthetic_oracle(12, 12, 99, "B", scale=0.9, shift=0.1)
    rep = fast_double_greedy(oracle, DecisionStream(7))
    for a_raw, b_raw in rep.extras["ab_gains"]:
        a, b = max(a_raw, 0.0), max(b_raw, 0.0)
        p = a / (a + b) if a + b > 0 else 1.0
        assert 0.0 <= p <= 1.0


def test_scale_shift_defaults_applied():
    """The run uses the adjustment the oracle was built with."""
    oracle = build_synthetic_oracle(6, 6, 5, "B", scale=0.9, shift=0.1)
    rep = fast_double_greedy(oracle, DecisionStream(1))
    twin = naive_double_greedy(oracle, DecisionStream(1))
    assert rep.selection == twin.selection
    assert rep.final_objective == pytest.approx(twin.final_objective, rel=1e-10)
    assert rep.algo == "double-fast"
    assert rep.timings["product_ms"] >= 0.0
    assert rep.timings["inverse_ms"] >= 0.0
    assert rep.timings["greedy_ms"] >= 0.0


def test_singular_kernel_gated():
    ones = np.ones((3, 3))  # rank 1: positive semidefinite, not definite
    oracle = KernelOracle.from_dense_kernel(ones)
    with pytest.raises(SingularKernelError):
        fast_double_greedy(oracle, DecisionStream(0))
    with pytest.raises(SingularKernelError):
        naive_double_greedy(ones, DecisionStream(0))


def test_timing_split_fields():
    oracle = build_synthetic_oracle(10, 10, 3, "B", scale=0.9, shift=0.1)
    rep = fast_double_greedy(oracle, DecisionStream(3))
    for key in ("product_ms", "inverse_ms", "greedy_ms", "total_ms"):
        assert key in rep.timings
    assert rep.timings["total_ms"] >= rep.timings["greedy_ms"]


def test_double_battery():
    result = check_double(instances=12)
    assert result.ok, result.detail
    # the 1.5/d family compares both moves: at least 30% of its decisions commit on the shrink side
    shrinks, decisions = map(int, re.search(r"scale 1.5/d: (\d+) of (\d+) decisions", result.detail).groups())
    assert shrinks >= 0.3 * decisions, result.detail


def test_jacobi_battery():
    result = check_jacobi(trials=60)
    assert result.ok, result.detail


def test_shrink_side_drift_raises_typed_error(monkeypatch):
    oracle = build_synthetic_oracle(10, 10, 1, "L", 0.9, 0.1)
    baseline = fast_double_greedy(oracle, DecisionStream(1))
    assert len(baseline.selection) < 10  # the shrink side commits at least once

    states = []

    class DroppedCommits(CholeskyState):
        def commit(self, i):
            if self is states[1]:  # the factor of the inverse kernel loses every commit
                return len(self.selection)
            return super().commit(i)

    def make_state(*args, **kwargs):
        states.append(DroppedCommits(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(doublegreedy, "CholeskyState", make_state)
    with pytest.raises(SelectionDriftError, match="drifted"):
        fast_double_greedy(oracle, DecisionStream(1))


def _both_sides_oracle(kind, n):
    """Diagonals near 1.5, so the coin sends items to both factors."""
    rng = np.random.default_rng(n)
    d = n + 3
    feats = rng.standard_normal((d, n)) / math.sqrt(d)
    if kind == "B":
        return KernelOracle.from_dense_features(feats, 1.0, 0.5)
    if kind == "L":
        return KernelOracle.from_dense_kernel(KernelOracle.from_dense_features(feats).materialize(), 1.0, 0.5)
    feats *= rng.random((d, n)) < 0.3
    return KernelOracle.from_sparse_features(SparseColumns.from_dense(feats), 3.0, 0.5)


@pytest.mark.parametrize("kind", ["B", "L", "sparse"])
@pytest.mark.parametrize("n", [70, 140])
def test_in_order_cache_leaves_reports_byte_identical(kind, n, monkeypatch):
    """Against a run whose prefetches do nothing, so every row catches up by the scalar loop."""
    cached = fast_double_greedy(_both_sides_oracle(kind, n), DecisionStream(n))
    assert 0 < len(cached.selection) < n  # both factors commit
    monkeypatch.setattr(CholeskyState, "prefetch", lambda self, lo: None)
    scalar = fast_double_greedy(_both_sides_oracle(kind, n), DecisionStream(n))
    assert cached.to_json(include_timings=False) == scalar.to_json(include_timings=False)


def test_in_order_cache_counts_only_adopted_columns_when_cut(monkeypatch):
    n, steps = 140, 97
    reports = []
    for in_order in (True, False):
        if not in_order:  # every row catches up by the scalar loop
            monkeypatch.setattr(CholeskyState, "prefetch", lambda self, lo: None)
        calls = itertools.count()
        monkeypatch.setattr(report_module, "_deadline_hit", lambda deadline: next(calls) >= steps)
        reports.append(fast_double_greedy(_both_sides_oracle("L", n), DecisionStream(3), deadline=0.0))
    cached, scalar = reports
    assert cached.timed_out and cached.steps_attempted == steps
    assert 0 < len(cached.selection) < steps
    assert cached.offdiag_count == steps * (steps - 1) // 2
    assert cached.to_json(include_timings=False) == scalar.to_json(include_timings=False)


@pytest.mark.parametrize("oracle", [
    build_synthetic_oracle(300, 300, 1, "L", 0.9, 0.1),  # every item grows the selection
    _both_sides_oracle("L", 300),
], ids=["grow-only", "both-sides"])
def test_every_prefetch_but_the_last_row_takes_the_in_order_path(oracle, monkeypatch):
    """A silent fall back to the generic sweep keeps the bits but loses the speed; this catches it."""
    in_order_calls = []
    cached = CholeskyState._prefetch_in_order

    def spy(self, lo):
        in_order_calls.append(lo)
        return cached(self, lo)

    monkeypatch.setattr(CholeskyState, "_prefetch_in_order", spy)
    rep = fast_double_greedy(oracle, DecisionStream(1))
    assert rep.steps_attempted == 300
    assert sorted(in_order_calls) == list(range(1, 300))


def test_a_grow_only_run_rebuilds_the_dot_cache_once_per_window(monkeypatch):
    """At n = 300 the window of 64 items starts at items 0, 64, 128, 192 and 256: five rebuilds, no more."""
    starts = []
    rebuild = CholeskyState._rebuild_dots

    def spy(self, a, t):
        starts.append(a)
        return rebuild(self, a, t)

    monkeypatch.setattr(CholeskyState, "_rebuild_dots", spy)
    rep = fast_double_greedy(build_synthetic_oracle(300, 300, 1, "L", 0.9, 0.1), DecisionStream(1))
    assert len(rep.selection) == 300
    assert starts == [0, 64, 128, 192, 256]
