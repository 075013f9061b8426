import math

import numpy as np
import pytest

from dppmap import reference
from dppmap.bench import build_synthetic_oracle
from dppmap.greedy import (
    GreedyConfig,
    fast_greedy,
    lazy_fast_greedy,
    lazy_greedy,
    naive_greedy,
)
from dppmap.kernel import KernelOracle
from dppmap.variants import greedy_band, sweep_total, triangle
from dppmap.verify import check_four_way, check_termination

ALL_FOUR = (naive_greedy, lazy_greedy, fast_greedy, lazy_fast_greedy)
L22 = np.array([[4.0, 2.0], [2.0, 4.0]])


def _oracle(matrix):
    return KernelOracle.from_dense_kernel(np.asarray(matrix, float))


@pytest.mark.parametrize("algo", ALL_FOUR)
def test_symmetric_items_tie_break(algo):
    rep = algo(_oracle(2.0 * np.eye(3)), GreedyConfig(k=2))
    assert rep.selection == [0, 1]
    assert rep.final_objective == pytest.approx(2 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("algo", ALL_FOUR)
def test_identity_terminates_empty(algo):
    rep = algo(_oracle(np.eye(3)), GreedyConfig(k=2))
    assert rep.selection == []
    assert rep.terminated_early
    assert rep.boundary_gain_steps == [1]


@pytest.mark.parametrize("algo", ALL_FOUR)
def test_2x2_exhaustive(algo):
    rep = algo(_oracle(L22), GreedyConfig(k=2))
    assert rep.selection == [0, 1]
    assert rep.final_objective == pytest.approx(math.log(12.0), rel=1e-10)


def test_fast_offdiag_2x2():
    rep = fast_greedy(_oracle(L22), GreedyConfig(k=2))
    assert rep.offdiag_count == 1  # one entry below the first pivot


def test_fast_offdiag_full_sweep():
    rep = fast_greedy(_oracle(2.0 * np.eye(3)), GreedyConfig(k=3))
    assert rep.selection == [0, 1, 2]
    assert rep.offdiag_count == 3  # (k-1)(n-k/2) = 2 * 1.5


def test_fast_offdiag_k1_is_zero():
    rep = fast_greedy(_oracle(np.diag([1.0, 5.0, 2.0])), GreedyConfig(k=1))
    assert rep.selection == [1]
    assert rep.offdiag_count == 0


def test_lazyfast_best_case_band():
    rep = lazy_fast_greedy(_oracle(L22), GreedyConfig(k=2))
    assert rep.offdiag_count == 1 == triangle(2)


def test_lazyfast_orthogonal_attains_lower_band():
    for n, k in ((6, 3), (9, 5)):
        rep = lazy_fast_greedy(_oracle(2.0 * np.eye(n)), GreedyConfig(k=k))
        assert rep.selection == list(range(k))
        assert rep.offdiag_count == triangle(k)
        assert np.allclose(rep.objective_trace,
                           np.cumsum([math.log(2.0)] * k), rtol=0, atol=1e-12)


def test_lazyfast_never_exceeds_fast():
    rng = np.random.default_rng(20)
    for t in range(20):
        n = int(rng.integers(5, 25))
        k = int(rng.integers(1, min(n, 8) + 1))
        oracle = build_synthetic_oracle(n, n, 500 + t, "B")
        fast_rep = fast_greedy(oracle, GreedyConfig(k=k))
        lf_rep = lazy_fast_greedy(oracle, GreedyConfig(k=k))
        assert lf_rep.selection == fast_rep.selection
        assert lf_rep.offdiag_count <= fast_rep.offdiag_count
        assert fast_rep.offdiag_count == sweep_total(n, fast_rep.steps_attempted)
        lo, hi = greedy_band(n, len(lf_rep.selection), lf_rep.steps_attempted)
        assert lo <= lf_rep.offdiag_count <= hi


def test_early_termination_bands():
    """Kernels with sub-unit tails stop early; counts stay inside the band."""
    mat = np.diag([4.0, 4.0, 0.25, 0.25])
    fast_rep = fast_greedy(_oracle(mat), GreedyConfig(k=3))
    lf_rep = lazy_fast_greedy(_oracle(mat), GreedyConfig(k=3))
    assert fast_rep.selection == lf_rep.selection == [0, 1]
    assert fast_rep.terminated_early and lf_rep.terminated_early
    assert fast_rep.offdiag_count == sweep_total(4, fast_rep.steps_attempted)
    lo, hi = greedy_band(4, 2, lf_rep.steps_attempted)
    assert lo <= lf_rep.offdiag_count <= hi
    assert lf_rep.offdiag_count <= fast_rep.offdiag_count


def test_termination_gain_is_nonpositive():
    """When a run stops early, the best remaining brute-force gain is <= 0."""
    mat = np.diag([4.0, 2.0, 0.5, 0.9, 1.0])
    for algo in ALL_FOUR:
        rep = algo(_oracle(mat), GreedyConfig(k=5))
        assert rep.terminated_early
        base = reference.log_det(mat, rep.selection)
        best = max(reference.log_det(mat, rep.selection + [i]) - base
                   for i in range(5) if i not in rep.selection)
        assert best <= 0.0
    # The same stop rule ends a run whose remaining items are all linearly
    # dependent (gain -inf, pivot 0) and a run that has no item left (k > n).
    for mat, k, want in ((2.0 * np.ones((6, 6)), 3, [0]),
                         (2.0 * np.eye(6), 9, list(range(6)))):
        for algo in ALL_FOUR:
            rep = algo(_oracle(mat), GreedyConfig(k=k))
            assert rep.selection == want, rep.algo
            assert rep.terminated_early, rep.algo
            assert rep.boundary_gain_steps == [], rep.algo
            assert len(rep.gains) == len(want)
            assert all(g > 0.0 for g in rep.gains), rep.algo


def test_four_way_equivalence_sample():
    result = check_four_way(instances=25)
    assert result.ok, result.detail


def test_termination_check():
    result = check_termination()
    assert result.ok, result.detail


def test_report_bookkeeping_fields():
    oracle = build_synthetic_oracle(12, 12, 42, "B")
    rep = lazy_fast_greedy(oracle, GreedyConfig(k=4))
    assert rep.algo == "lazyfast"
    assert rep.input_kind == "B"
    assert (rep.n, rep.d, rep.k) == (12, 12, 4)
    assert rep.kernel_evals > 0
    assert rep.pq_ops > 0
    assert len(rep.gains) == len(rep.selection) == 4
    assert rep.objective_trace == pytest.approx(np.cumsum(rep.gains).tolist())
    assert rep.timings["total_ms"] >= rep.timings["greedy_ms"] >= 0.0


def test_b_and_l_inputs_agree():
    rng = np.random.default_rng(77)
    feats = rng.standard_normal((15, 12))
    b_oracle = KernelOracle.from_dense_features(feats)
    l_oracle = KernelOracle.from_dense_kernel(b_oracle.materialize())
    cfg = GreedyConfig(k=5)
    rep_b = lazy_fast_greedy(b_oracle, cfg)
    rep_l = lazy_fast_greedy(l_oracle, cfg)
    assert rep_b.selection == rep_l.selection
    assert rep_b.final_objective == pytest.approx(rep_l.final_objective, rel=1e-9)
