"""Acceptance suite: every release gate, one test per criterion.

Each test prints a single ``criterion N ... PASS`` line (visible under
``pytest -s`` or in the captured output of a failing run) and asserts the
gate at its stated tolerance and time budget.  Soft checks print warnings
but never fail.
"""

import time

import numpy as np

from dppmap import reference
from dppmap.bench import build_synthetic_oracle
from dppmap.datagen import SyntheticSpec, gen_synthetic
from dppmap.doublegreedy import fast_double_greedy, naive_double_greedy
from dppmap.greedy import GreedyConfig, fast_greedy, lazy_fast_greedy
from dppmap.kernel import KernelOracle
from dppmap.stream import DecisionStream
from dppmap.variants import (
    VariantConfig,
    greedy_band,
    interlace_band,
    interlace_greedy_lf,
    random_greedy_lf,
    stochastic_greedy_lf,
    stochastic_sample_size,
    stochastic_upper_bound,
    sweep_total,
    triangle,
)
from dppmap import matrixio, verify


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_four_way_equivalence():
    t0 = time.perf_counter()
    result = verify.check_four_way(instances=100)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 10.0
    _report(1, "four-way greedy equivalence", ok,
            f"{result.detail}; elapsed {elapsed:.1f}s < 10s")


def test_criterion_02_gain_identity():
    t0 = time.perf_counter()
    result = verify.check_gain_identity(instances=50)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 5.0
    _report(2, "incremental pivot gain identity", ok,
            f"{result.detail}; elapsed {elapsed:.1f}s < 5s")


def test_criterion_03_jacobi_identity():
    t0 = time.perf_counter()
    result = verify.check_jacobi(trials=200)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 5.0
    _report(3, "complementary-minor identity", ok,
            f"{result.detail}; elapsed {elapsed:.1f}s < 5s")


def test_criterion_04_work_count_bands():
    """Count bands for every solver family, incl. early-termination runs.

    Lazily updated solvers are checked against the committed-triangle /
    eager-sweep band; the eager solver must hit the sweep total exactly; the
    sampling variant is checked against its adversarial-schedule bound.
    """
    failures = []
    rng = np.random.default_rng(77)
    for t in range(30):
        n = int(rng.integers(8, 36))
        k = max(1, int(rng.integers(1, max(2, n // 4 + 1))))
        if t % 3 == 0:
            diag = rng.uniform(0.05, 3.0, size=n)  # sub-unit tail: termination likely
            oracle = KernelOracle.from_dense_kernel(np.diag(diag))
        else:
            oracle = build_synthetic_oracle(n, n, 4000 + t, "B")
        fast_rep = fast_greedy(oracle, GreedyConfig(k=k))
        lf_rep = lazy_fast_greedy(oracle, GreedyConfig(k=k))
        if fast_rep.offdiag_count != sweep_total(n, fast_rep.steps_attempted):
            failures.append(f"t={t}: fast count off closed form")
        lo, hi = greedy_band(n, len(lf_rep.selection), lf_rep.steps_attempted)
        if not (lo <= lf_rep.offdiag_count <= hi):
            failures.append(f"t={t}: lazyfast {lf_rep.offdiag_count} outside [{lo},{hi}]")
        if lf_rep.offdiag_count > fast_rep.offdiag_count:
            failures.append(f"t={t}: lazyfast above fast")
        if k >= 1 and n >= 4 * k:
            seed = 9000 + t
            r_rep = random_greedy_lf(oracle, VariantConfig(k=k), DecisionStream(seed))
            lo, hi = greedy_band(n, len(r_rep.selection), k)  # every one of the k steps is attempted
            if not (lo <= r_rep.offdiag_count <= hi):
                failures.append(f"t={t}: random {r_rep.offdiag_count} outside [{lo},{hi}]")
            eps = 0.5
            s_rep = stochastic_greedy_lf(oracle, VariantConfig(k=k, epsilon=eps),
                                         DecisionStream(seed))
            s = stochastic_sample_size(n, k, eps)
            hi = stochastic_upper_bound(n, k, s)
            lo = triangle(len(s_rep.selection))
            if not (lo <= s_rep.offdiag_count <= hi):
                failures.append(f"t={t}: stochastic {s_rep.offdiag_count} outside [{lo},{hi}]")
            i_rep = interlace_greedy_lf(oracle, GreedyConfig(k=k))
            commits = [len(seq) for seq in i_rep.extras["sequences"].values()]
            while len(commits) < 4:
                commits.append(0)
            lo, hi = interlace_band(n, k, commits)
            if not (lo <= i_rep.offdiag_count <= hi):
                failures.append(f"t={t}: interlace {i_rep.offdiag_count} outside [{lo},{hi}]")
    _report(4, "off-diagonal count bands", not failures, "; ".join(failures) or "30 mixed instances")


def test_criterion_05_lazy_saves_work():
    t0 = time.perf_counter()
    result = verify.check_lazy_savings(n=2000, k=100, seeds=(1, 2, 3, 4, 5))
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 60.0
    _report(5, "lazy work savings at n=2000", ok,
            f"{result.detail}; elapsed {elapsed:.1f}s < 60s")


def test_criterion_06_double_greedy_coupling():
    t0 = time.perf_counter()
    result = verify.check_double(instances=50)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 10.0
    _report(6, "double greedy coupling", ok,
            f"{result.detail}; elapsed {elapsed:.1f}s < 10s")


def test_criterion_06b_double_greedy_speed_soft():
    """Soft (warning-only): the incremental version should win by >= 5x at n=500."""
    oracle = build_synthetic_oracle(500, None, 1, "L", scale=0.9, shift=0.1)
    fast_rep = fast_double_greedy(oracle, DecisionStream(1))
    naive_rep = naive_double_greedy(oracle, DecisionStream(1))
    assert fast_rep.selection == naive_rep.selection
    ratio = naive_rep.timings["greedy_ms"] / max(fast_rep.timings["greedy_ms"], 1e-9)
    line = (f"greedy phase: naive {naive_rep.timings['greedy_ms']:.0f} ms, "
            f"fast {fast_rep.timings['greedy_ms']:.0f} ms, ratio {ratio:.1f}x")
    if ratio < 5.0:
        print(f"criterion  6 [soft speed check]: WARNING {line} (< 5x, non-gating)")
    else:
        print(f"criterion  6 [soft speed check]: PASS {line}")


def test_criterion_07_variant_coupling():
    t0 = time.perf_counter()
    result = verify.check_variant_coupling(instances=50)
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 30.0
    _report(7, "variant coupling", ok,
            f"{result.detail}; elapsed {elapsed:.1f}s < 30s")


def test_criterion_08_approximation_sanity():
    result = verify.check_monotone_bound(instances=50)
    dominance_fail = ""
    for t in range(10):
        k = 1 + t % 3
        n = 4 * k + 5
        oracle = build_synthetic_oracle(n, n, 8800 + t, "B")
        rep = interlace_greedy_lf(oracle, GreedyConfig(k=k))
        matrix = oracle.materialize()
        for seq in rep.extras["sequences"].values():
            for m in range(len(seq) + 1):
                pref = reference.log_det(matrix, seq[:m])
                if pref > rep.final_objective + 1e-8:
                    dominance_fail = f"t={t}: prefix {seq[:m]} beats the returned set"
    stat = verify.check_double_half_expectation()
    print(f"criterion  8 [double greedy half-of-optimum, statistical]: {stat.detail}")
    ok = result.ok and not dominance_fail
    _report(8, "approximation sanity", ok, f"{result.detail}; {dominance_fail or 'prefix dominance holds'}")


def test_criterion_09_termination_semantics():
    result = verify.check_termination()
    _report(9, "termination semantics", result.ok, result.detail)


def test_criterion_10_pipeline_roundtrip(tmp_path):
    result = verify.check_datagen()
    ok = result.ok
    detail = result.detail
    if ok:
        for seed in (3, 4):
            paths = []
            for rep in range(2):
                path = tmp_path / f"g{seed}-{rep}.dppm1"
                matrixio.write_dense(path, gen_synthetic(SyntheticSpec(n=20, d=20, seed=seed)))
                paths.append(path)
            if paths[0].read_bytes() != paths[1].read_bytes():
                ok, detail = False, f"seed {seed}: files differ"
    _report(10, "pipeline round-trip", ok, detail)
