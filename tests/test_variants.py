import itertools
import math

import numpy as np
import pytest

from dppmap import reference, report as report_module
from dppmap.bench import build_synthetic_oracle, run_algorithm
from dppmap.greedy import GreedyConfig, lazy_fast_greedy
from dppmap.kernel import KernelOracle
from dppmap.naive_variants import naive_stochastic_greedy
from dppmap.stream import DecisionStream
from dppmap.variants import (
    VariantConfig,
    interlace_greedy_lf,
    random_greedy_lf,
    stochastic_greedy_lf,
    stochastic_sample_size,
    stochastic_upper_bound,
    triangle,
)
from dppmap.verify import check_variant_coupling


class ScriptedStream:
    """Stand-in stream with a predetermined rank sequence."""

    def __init__(self, ranks):
        self.ranks = list(ranks)
        self.seed = 0

    def rank(self, k):
        return self.ranks.pop(0)


def _oracle(matrix):
    return KernelOracle.from_dense_kernel(np.asarray(matrix, float))


def test_preconditions():
    oracle = build_synthetic_oracle(10, 10, 1, "B")
    with pytest.raises(ValueError, match="2k"):
        random_greedy_lf(oracle, VariantConfig(k=6), DecisionStream(0))
    with pytest.raises(ValueError, match="3k"):
        stochastic_greedy_lf(oracle, VariantConfig(k=4, epsilon=0.5), DecisionStream(0))
    with pytest.raises(ValueError, match="4k"):
        interlace_greedy_lf(oracle, GreedyConfig(k=3))
    with pytest.raises(ValueError, match="epsilon"):
        stochastic_greedy_lf(oracle, VariantConfig(k=3), DecisionStream(0))


def test_sample_size_formula():
    assert stochastic_sample_size(100, 10, 0.5) == 7  # ceil(10 * ln 2)
    assert stochastic_sample_size(30, 3, 0.5) == 7
    with pytest.raises(ValueError):
        stochastic_sample_size(10, 2, 1.5)


def test_random_rank_trace_on_orthogonal_items():
    # equal-gain items: rank 2 picks the second index, then rank 1 the smallest left
    rep = random_greedy_lf(_oracle(2.0 * np.eye(4)), VariantConfig(k=2),
                           ScriptedStream([2, 1]))
    assert rep.selection == [1, 0]
    assert rep.extras["rank_draws"] == [2, 1]
    assert rep.offdiag_count == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_twins_break_exact_ties_by_rank_among_the_smallest_indices(seed):
    """On ``2 I`` every gain is ``ln 2`` exactly, so each step's rank draw picks the
    rank-th smallest item left, in the queue order and in the brute-force pick order alike."""
    oracle = _oracle(2.0 * np.eye(12))
    reports = [run_algorithm(algo, oracle, 5, seed=seed) for algo in ("random", "random-naive")]
    for rep in reports:
        expected = []
        for rank in rep.extras["rank_draws"]:
            expected.append([i for i in range(12) if i not in expected][rank - 1])
        assert rep.selection == expected
        assert rep.extras["rank_draws"] == reports[0].extras["rank_draws"]


def test_random_k1_matches_lazyfast():
    for t in range(10):
        oracle = build_synthetic_oracle(8, 8, 900 + t, "B")
        rep_r = random_greedy_lf(oracle, VariantConfig(k=1), DecisionStream(t))
        rep_g = lazy_fast_greedy(oracle, GreedyConfig(k=1))
        assert rep_r.selection == rep_g.selection


def test_random_identity_is_all_dummies():
    rep = random_greedy_lf(_oracle(np.eye(8)), VariantConfig(k=3), DecisionStream(5))
    assert rep.selection == []
    assert rep.extras["dummy_steps"] == [1, 2, 3]
    assert rep.boundary_gain_steps == [1, 2, 3]


def test_random_coupling_and_drop_safety():
    for t in range(15):
        k = 1 + t % 5
        n = 4 * k + 3
        oracle = build_synthetic_oracle(n, n, 700 + t, "B")
        seed = 31 * t
        rep = random_greedy_lf(oracle, VariantConfig(k=k), DecisionStream(seed))
        twin = run_algorithm("random-naive", oracle, k, seed=seed)
        assert rep.selection == twin.selection
        assert rep.extras["rank_draws"] == twin.extras["rank_draws"]
        assert not set(rep.extras["dropped"]) & set(twin.selection)


def test_twins_agree_on_the_steps_that_commit_nothing():
    """Item 1 sits on the zero-gain boundary and items 2-5 below it.  Random greedy's
    ``boundary_gain_steps`` are left out, as in ``verify.check_variant_coupling``."""
    oracle = _oracle(np.diag([4.0, 1.0, 0.25, 0.25, 0.25, 0.25]))
    for seed in range(8):
        fast, naive = (run_algorithm(algo, oracle, 3, seed=seed) for algo in ("random", "random-naive"))
        assert (fast.selection, fast.extras["dummy_steps"]) == (naive.selection, naive.extras["dummy_steps"])
        fast, naive = (run_algorithm(algo, oracle, 2, seed=seed, epsilon=0.5)
                       for algo in ("stochastic", "stochastic-naive"))
        assert ((fast.selection, fast.extras["skipped_steps"], fast.boundary_gain_steps)
                == (naive.selection, naive.extras["skipped_steps"], naive.boundary_gain_steps))


def test_stochastic_full_sampling_degenerates_to_greedy():
    # epsilon small enough that s >= n: every step scans the whole complement
    for t in range(8):
        oracle = build_synthetic_oracle(12, 12, 800 + t, "B")
        cfg = VariantConfig(k=3, epsilon=0.01)
        assert stochastic_sample_size(12, 3, 0.01) >= 12
        rep_s = stochastic_greedy_lf(oracle, cfg, DecisionStream(t))
        rep_g = lazy_fast_greedy(oracle, GreedyConfig(k=3))
        assert rep_s.selection == rep_g.selection


def test_stochastic_coupling():
    for t in range(15):
        k = 1 + t % 4
        n = 3 * k + 5
        oracle = build_synthetic_oracle(n, n, 600 + t, "B")
        seed = 17 * t + 1
        eps = 0.3 + 0.1 * (t % 5)
        cfg = VariantConfig(k=k, epsilon=eps)
        rep = stochastic_greedy_lf(oracle, cfg, DecisionStream(seed))
        twin = run_algorithm("stochastic-naive", oracle, k, seed=seed, epsilon=eps)
        assert rep.selection == twin.selection, f"t={t}"


def test_stochastic_pivot_state_persists():
    oracle = build_synthetic_oracle(18, 18, 4, "B")
    rep = stochastic_greedy_lf(oracle, VariantConfig(k=4, epsilon=0.4), DecisionStream(4))
    # lazily initialized rows only: far fewer diagonal lookups than 2n
    assert rep.kernel_evals < 18 * 18
    assert rep.extras["sample_size"] == stochastic_sample_size(18, 4, 0.4)


def test_stochastic_upper_bound_regimes():
    assert stochastic_upper_bound(10, 5, 3) == 28  # q=3 < k: adversarial tail
    assert stochastic_upper_bound(30, 3, 4) == 4 * 3  # q=7 >= k: s * k(k-1)/2
    # never exceeds the eager sweep
    assert stochastic_upper_bound(10, 9, 9) <= (9 - 1) * (10 - 4.5)


def test_interlace_disjointness_and_seeding():
    rep = interlace_greedy_lf(_oracle(2.0 * np.eye(8)), GreedyConfig(k=2))
    seqs = rep.extras["sequences"]
    assert set(seqs["A"]) & set(seqs["B"]) == set()
    assert set(seqs["C"]) & set(seqs["D"]) == {seqs["A"][0]}
    assert rep.offdiag_count == 2 * 2 * (2 - 1)  # lower band, orthogonal items


def test_interlace_padded_singleton():
    mat = np.zeros((6, 6))
    mat[:2, :2] = [[4.0, 2.0], [2.0, 4.0]]
    for i in range(2, 6):
        mat[i, i] = 3.0
    rep = interlace_greedy_lf(_oracle(mat), GreedyConfig(k=1))
    assert rep.selection == [0]
    assert rep.final_objective == pytest.approx(math.log(4.0), rel=1e-12)


def test_interlace_identity_returns_empty():
    rep = interlace_greedy_lf(_oracle(np.eye(8)), GreedyConfig(k=2))
    assert rep.selection == []
    assert rep.final_objective == 0.0


def test_interlace_best_prefix_dominates():
    for t in range(10):
        k = 1 + t % 3
        n = 4 * k + 4
        oracle = build_synthetic_oracle(n, n, 300 + t, "B")
        rep = interlace_greedy_lf(oracle, GreedyConfig(k=k))
        matrix = oracle.materialize()
        best = -math.inf
        for seq in rep.extras["sequences"].values():
            for m in range(len(seq) + 1):
                best = max(best, reference.log_det(matrix, seq[:m]))
        assert rep.final_objective == pytest.approx(best, rel=1e-8)


def test_interlace_coupling():
    for t in range(15):
        k = 1 + t % 3
        n = 4 * k + 2 + t % 5
        oracle = build_synthetic_oracle(n, n, 200 + t, "B")
        rep = interlace_greedy_lf(oracle, GreedyConfig(k=k))
        twin = run_algorithm("interlace-naive", oracle, k)
        assert rep.selection == twin.selection, f"t={t}"
        assert rep.extras["sequences"] == twin.extras["sequences"], f"t={t}"
        assert len(twin.gains) == len(twin.selection) and twin.gains == pytest.approx(rep.gains, rel=1e-8), f"t={t}"


@pytest.mark.parametrize("cut", range(1, 7))
def test_interlace_twins_agree_when_a_deadline_cuts_them(monkeypatch, cut):
    """With k = 4 the deadline is checked before phase one's steps 1-4 and phase two's 1-3;
    it passes after ``cut`` checks, so cuts 1-3 stop phase one and 4-6 phase two."""
    k = 4
    oracle = build_synthetic_oracle(20, 20, 7, "B")
    reports = []
    for algo in ("interlace", "interlace-naive"):
        calls = itertools.count()
        monkeypatch.setattr(report_module, "_deadline_hit", lambda deadline: next(calls) >= cut)
        reports.append(run_algorithm(algo, oracle, k, deadline=0.0))
    fast, naive = reports
    phase_one, phase_two = min(cut, k), max(0, cut - k)
    assert [len(seq) for seq in fast.extras["sequences"].values()] == [phase_one] * 2 + [1 + phase_two] * 2
    for rep in (fast, naive):
        assert rep.timed_out and rep.steps_attempted == k
    assert fast.selection == naive.selection
    assert fast.extras["sequences"] == naive.extras["sequences"]
    assert fast.extras["best_prefix"] == naive.extras["best_prefix"]


def test_stochastic_degenerate_matches_naive_greedy():
    """Full sampling also collapses the naive twin onto plain greedy."""
    from dppmap.greedy import naive_greedy
    oracle = build_synthetic_oracle(9, 9, 123, "B")
    cfg = VariantConfig(k=3, epsilon=0.001)
    twin = naive_stochastic_greedy(oracle, cfg, DecisionStream(0))
    plain = naive_greedy(oracle, GreedyConfig(k=3))
    assert twin.selection == plain.selection


def test_variant_coupling_battery():
    result = check_variant_coupling(instances=15)
    assert result.ok, result.detail


def test_random_band_lower_attained():
    rep = random_greedy_lf(_oracle(2.0 * np.eye(10)), VariantConfig(k=3),
                           ScriptedStream([1, 1, 1]))
    assert rep.selection == [0, 1, 2]
    assert rep.offdiag_count == triangle(3)


def test_rank_deficient_kernels_stay_coupled():
    """Singular kernels exhaust their rank and hit the dummy branches; the
    accelerated and brute-force twins must keep agreeing there too."""
    for t in range(12):
        oracle = build_synthetic_oracle(16, 3, 50 + t, "B")  # rank <= 3
        seed = 99 + t
        for algo, eps in (("random", None), ("stochastic", 0.4), ("interlace", None)):
            rep = run_algorithm(algo, oracle, 4, seed=seed, epsilon=eps)
            twin = run_algorithm(f"{algo}-naive", oracle, 4, seed=seed, epsilon=eps)
            assert rep.selection == twin.selection, (t, algo)
            assert len(rep.selection) <= 3, (t, algo)
