import math

import numpy as np
import pytest

from dppmap import doublegreedy
from dppmap.bench import build_synthetic_oracle
from dppmap.cholesky import CholeskyState
from dppmap.doublegreedy import fast_double_greedy, jacobi_gain_check, naive_double_greedy
from dppmap.errors import SelectionDriftError, SingularKernelError
from dppmap.kernel import KernelOracle
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
        rep_n = naive_double_greedy(oracle.materialize(), DecisionStream(seed))
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
    twin = naive_double_greedy(oracle.materialize(), DecisionStream(1))
    assert rep.selection == twin.selection
    assert rep.final_objective == pytest.approx(twin.final_objective, rel=1e-10)
    assert rep.algo == "double-fast"
    assert rep.timings["product_ms"] >= 0.0
    assert rep.timings["inverse_ms"] >= 0.0
    assert rep.timings["greedy_ms"] >= 0.0


def test_singular_kernel_gated():
    ones = np.ones((3, 3))  # rank 1, not PD
    oracle = KernelOracle.from_dense_kernel(ones)
    with pytest.raises(SingularKernelError):
        fast_double_greedy(oracle, DecisionStream(0))


def test_timing_split_fields():
    oracle = build_synthetic_oracle(10, 10, 3, "B", scale=0.9, shift=0.1)
    rep = fast_double_greedy(oracle, DecisionStream(3))
    for key in ("product_ms", "inverse_ms", "greedy_ms", "total_ms"):
        assert key in rep.timings
    assert rep.timings["total_ms"] >= rep.timings["greedy_ms"]


def test_double_battery():
    result = check_double(instances=12)
    assert result.ok, result.detail


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
