"""Invariant and differential checks over the whole solver family.

Each check returns a :class:`CheckResult`; :func:`run_all` executes the
battery (``quick`` trims instance counts).  The same parameterized functions
back the acceptance test suite, which pins the full instance counts and
tolerances.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrixio, reference
from .bench import build_synthetic_oracle, naive_twin_report, run_algorithm, soft_speed_warnings, _report_row
from .cholesky import CholeskyState
from .datagen import RatingsSpec, SyntheticSpec, gen_synthetic, ingest_ratings
from .doublegreedy import fast_double_greedy, jacobi_gain_check, naive_double_greedy
from .greedy import GreedyConfig, fast_greedy, lazy_fast_greedy, lazy_greedy, naive_greedy
from .kernel import KernelOracle, SparseColumns
from .naive_variants import naive_interlace_greedy
from .pqueue import LazyMaxQueue
from .stream import DecisionStream
from .variants import (
    VariantConfig,
    greedy_band,
    interlace_band,
    interlace_greedy_lf,
    random_greedy_band,
    random_greedy_lf,
    stochastic_greedy_lf,
    stochastic_sample_size,
    stochastic_upper_bound,
    sweep_total,
    triangle,
)

GAIN_REL_TOL = 1e-8
OBJ_REL_TOL = 1e-8
TRACE_ABS_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}: {self.detail}"


def _close_rel(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- priority queue ----------------------------------------------------------

def check_pqueue(total_ops: int = 100_000, seed: int = 11) -> CheckResult:
    """Differential test against a linear-scan model of live entries."""
    rng = np.random.default_rng(seed)
    sequences = 20
    per_seq = total_ops // sequences
    ops_done = 0
    for _ in range(sequences):
        n = int(rng.integers(4, 40))
        keys = rng.integers(0, 12, size=n).astype(float)  # collisions on purpose
        queue = LazyMaxQueue.build(keys)
        model: dict[int, float] = {i: float(k) for i, k in enumerate(keys)}
        excluded: set[int] = set()
        for _ in range(per_seq):
            op = rng.integers(0, 4)
            ops_done += 1
            live = {i: k for i, k in model.items() if i not in excluded}
            if op == 0:
                i = int(rng.integers(0, n))
                key = float(rng.integers(0, 12))
                queue.push(i, key)
                model[i] = key
            elif op == 1:
                i = int(rng.integers(0, n))
                queue.exclude(i)
                excluded.add(i)
            elif op == 2:
                want = max(live.items(), key=lambda kv: (kv[1], -kv[0]))[1] if live else -math.inf
                got = queue.peek_max()
                if got != want:
                    return CheckResult("pqueue-differential", False,
                                       f"peek mismatch: {got} != {want}")
            else:
                if not live:
                    try:
                        queue.pop_max()
                        return CheckResult("pqueue-differential", False,
                                           "pop on empty queue did not raise")
                    except IndexError:
                        continue
                want_i, want_k = max(live.items(), key=lambda kv: (kv[1], -kv[0]))
                got_i, got_k = queue.pop_max()
                if (got_i, got_k) != (want_i, want_k):
                    return CheckResult("pqueue-differential", False,
                                       f"pop mismatch: {(got_i, got_k)} != {(want_i, want_k)}")
                del model[want_i]
    return CheckResult("pqueue-differential", True, f"{ops_done} ops agree with the scan model")


# -- kernel layer ------------------------------------------------------------

def check_kernel(trials: int = 20, seed: int = 12) -> CheckResult:
    """Symmetry, sparse/dense exact agreement, and PSD principal minors."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        d = int(rng.integers(2, 12))
        n = int(rng.integers(2, 12))
        dense = rng.standard_normal((d, n))
        dense[rng.random((d, n)) < 0.4] = 0.0
        ora_dense = KernelOracle.from_dense_features(dense)
        ora_sparse = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
        for i in range(n):
            for j in range(n):
                de = ora_dense.entry(i, j)
                sp = ora_sparse.entry(i, j)
                if de != sp:
                    return CheckResult("kernel-consistency", False,
                                       f"trial {trial}: sparse/dense differ at ({i},{j})")
                if de != ora_dense.entry(j, i):
                    return CheckResult("kernel-consistency", False,
                                       f"trial {trial}: asymmetry at ({i},{j})")
        subset = rng.permutation(n)[: min(8, n)]
        gram = np.array([[ora_dense.entry(int(i), int(j)) for j in subset] for i in subset])
        if np.min(np.linalg.eigvalsh(gram)) < -1e-10:
            return CheckResult("kernel-consistency", False, f"trial {trial}: minor not PSD")
    return CheckResult("kernel-consistency", True, f"{trials} feature matrices consistent")


# -- incremental factor ------------------------------------------------------

def check_gain_identity(instances: int = 50, seed0: int = 100,
                        max_n: int = 20) -> CheckResult:
    """Incremental pivot gains match brute-force log-det differences."""
    worst = 0.0
    pairs = 0
    for t in range(instances):
        rng = np.random.default_rng(seed0 + t)
        n = int(rng.integers(4, max_n + 1))
        k = int(rng.integers(1, min(n, 6) + 1))
        oracle = build_synthetic_oracle(n, n, seed0 + t, "L")
        matrix = oracle.materialize()
        state = CholeskyState(oracle, k)
        for _step in range(k):
            base = reference.log_det(matrix, state.selection)
            best_i, best_gain = -1, -math.inf
            for i in range(n):
                if state.in_selection[i]:
                    continue
                state.update_row(i)
                inc = state.marginal_gain(i)
                brute_obj = reference.log_det(matrix, list(state.selection) + [i])
                brute = brute_obj - base
                err = abs(inc - brute)
                lim = GAIN_REL_TOL * max(1.0, abs(brute_obj))
                worst = max(worst, err)
                pairs += 1
                if err > lim:
                    return CheckResult(
                        "gain-identity", False,
                        f"instance {t}: |{inc} - {brute}| = {err:.2e} > {lim:.2e}")
                if inc > best_gain:
                    best_i, best_gain = i, inc
            if best_i < 0 or state.pivots[best_i] <= 1e-6:
                break
            state.commit(best_i)
    return CheckResult("gain-identity", True,
                       f"{pairs} (prefix, row) pairs, worst abs err {worst:.2e}")


def check_pythagoras(instances: int = 10, seed0: int = 140) -> CheckResult:
    """Row norms of the factor decompose the kernel diagonal."""
    for t in range(instances):
        oracle = build_synthetic_oracle(12, 12, seed0 + t, "B")
        state = CholeskyState(oracle, 6)
        order = np.random.default_rng(t).permutation(12)[:6]
        for j in order:
            state.update_row(int(j))
            if state.pivots[j] > 1e-6:
                state.commit(int(j))
            for i in range(12):
                if state.in_selection[i]:
                    continue
                state.update_row(i)
                m = len(state.selection)
                lhs = state.pivots[i] ** 2 + float(np.sum(state.factor[i, :m] ** 2))
                rhs = oracle.entry(i, i)
                if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
                    return CheckResult("pythagoras", False,
                                       f"instance {t}: row {i}: {lhs} vs {rhs}")
    return CheckResult("pythagoras", True, f"{instances} instances hold to 1e-9 relative")


def check_row_independence(seed: int = 150) -> CheckResult:
    """Row refresh order and vectorized prefetch cannot change any value, bit for bit.

    Three schedules fill the same factor: scalar catch-up in ascending and in
    descending row order, and one that prefetches row blocks of varying
    start after each commit before the scalar catch-up adopts them.  Factor
    and pivots must match byte for byte, sign of zero included.
    """
    oracle = build_synthetic_oracle(14, 14, seed, "B")
    commits = [3, 7, 1, 10]
    prefetch_from = [5, 0, 12, 2]  # after each commit; rows reach the last commit with mixed progress

    def run(order, prefetch=False):
        state = CholeskyState(oracle, len(commits))
        for c, lo in zip(commits, prefetch_from):
            state.update_row(c)
            state.commit(c)
            if prefetch:
                state.prefetch(lo)
        for i in order:
            if not state.in_selection[i]:
                state.update_row(i)
        return state

    ascending = run(range(14))
    for label, other in (("descending", run(range(13, -1, -1))),
                         ("prefetched", run(range(14), prefetch=True))):
        if ascending.factor.tobytes() != other.factor.tobytes():
            return CheckResult("row-independence", False, f"factor entries differ: ascending vs {label}")
        if ascending.pivots.tobytes() != other.pivots.tobytes():
            return CheckResult("row-independence", False, f"pivots differ: ascending vs {label}")
    return CheckResult("row-independence", True,
                       "refresh order and prefetch are bitwise irrelevant")


def check_objective_reconstruction(instances: int = 10, seed0: int = 160) -> CheckResult:
    """Accumulated pivot objectives match brute-force log-dets per prefix."""
    for t in range(instances):
        n = 16
        oracle = build_synthetic_oracle(n, n, seed0 + t, "B")
        matrix = oracle.materialize()
        report = lazy_fast_greedy(oracle, GreedyConfig(k=6))
        for m in range(1, len(report.selection) + 1):
            want = reference.log_det(matrix, report.selection[:m])
            got = report.objective_trace[m - 1]
            if not _close_rel(got, want, OBJ_REL_TOL):
                return CheckResult("objective-reconstruction", False,
                                   f"instance {t}: prefix {m}: {got} vs {want}")
    return CheckResult("objective-reconstruction", True,
                       f"{instances} runs, every prefix within 1e-8 relative")


# -- constrained greedy family ----------------------------------------------

def check_four_way(instances: int = 100, seed0: int = 1000,
                   time_budget_s: float | None = None) -> CheckResult:
    """All four greedy implementations agree; objectives match brute force."""
    t_start = time.perf_counter()
    for t in range(instances):
        rng = np.random.default_rng(seed0 + t)
        n = int(rng.integers(10, 41))
        k = int(rng.integers(1, 11))
        k = min(k, n)
        oracle = build_synthetic_oracle(n, n, seed0 + t, "B")
        cfg = GreedyConfig(k=k)
        reports = [naive_greedy(oracle, cfg), lazy_greedy(oracle, cfg),
                   fast_greedy(oracle, cfg), lazy_fast_greedy(oracle, cfg)]
        selections = [r.selection for r in reports]
        if any(s != selections[0] for s in selections[1:]):
            return CheckResult("four-way-equivalence", False,
                               f"instance {t} (n={n}, k={k}): selections differ: "
                               + "; ".join(f"{r.algo}={r.selection}" for r in reports))
        for r in reports[1:]:
            if len(r.objective_trace) != len(reports[0].objective_trace) or any(
                    abs(a - b) > TRACE_ABS_TOL
                    for a, b in zip(r.objective_trace, reports[0].objective_trace)):
                return CheckResult("four-way-equivalence", False,
                                   f"instance {t}: {r.algo} trace deviates")
        matrix = oracle.materialize()
        want = reference.log_det(matrix, selections[0])
        for r in reports:
            if not _close_rel(r.final_objective, want, OBJ_REL_TOL):
                return CheckResult("four-way-equivalence", False,
                                   f"instance {t}: {r.algo} objective {r.final_objective} "
                                   f"vs reference {want}")
        # work-count invariants come free with every run
        fast_expected = sweep_total(n, reports[2].steps_attempted)
        if reports[2].offdiag_count != fast_expected:
            return CheckResult("four-way-equivalence", False,
                               f"instance {t}: fast off-diagonals {reports[2].offdiag_count} "
                               f"!= closed form {fast_expected}")
        lf = reports[3]
        lo, hi = greedy_band(n, len(lf.selection), lf.steps_attempted)
        if not (lo <= lf.offdiag_count <= hi and lf.offdiag_count <= reports[2].offdiag_count):
            return CheckResult("four-way-equivalence", False,
                               f"instance {t}: lazyfast count {lf.offdiag_count} outside "
                               f"[{lo}, {hi}] or above fast")
    elapsed = time.perf_counter() - t_start
    if time_budget_s is not None and elapsed > time_budget_s:
        return CheckResult("four-way-equivalence", False,
                           f"{instances} instances took {elapsed:.1f}s > {time_budget_s}s budget")
    return CheckResult("four-way-equivalence", True,
                       f"{instances} instances agree ({elapsed:.1f}s)")


def check_termination() -> CheckResult:
    """Identity kernels stop every algorithm at the empty set; 2I fills k."""
    for n, k in ((6, 3), (12, 3)):
        oracle = KernelOracle.from_dense_kernel(np.eye(n))
        cfg = GreedyConfig(k=k)
        for fn in (naive_greedy, lazy_greedy, fast_greedy, lazy_fast_greedy):
            rep = fn(oracle, cfg)
            if rep.selection != []:
                return CheckResult("termination-semantics", False,
                                   f"{rep.algo} selected {rep.selection} on the identity")
        vk = max(1, n // 4)  # satisfies every variant's n >= c*k precondition
        vcfg = VariantConfig(k=vk, epsilon=0.5)
        if random_greedy_lf(oracle, vcfg, DecisionStream(3)).selection != []:
            return CheckResult("termination-semantics", False, "random greedy selected on identity")
        if stochastic_greedy_lf(oracle, vcfg, DecisionStream(3)).selection != []:
            return CheckResult("termination-semantics", False, "stochastic greedy selected on identity")
        if interlace_greedy_lf(oracle, vcfg).selection != []:
            return CheckResult("termination-semantics", False, "interlace greedy selected on identity")
        if naive_interlace_greedy(oracle, vcfg).selection != []:
            return CheckResult("termination-semantics", False, "naive interlace selected on identity")
    for n, k in ((8, 3), (10, 5)):
        oracle = KernelOracle.from_dense_kernel(2.0 * np.eye(n))
        rep = lazy_fast_greedy(oracle, GreedyConfig(k=k))
        if rep.selection != list(range(k)):
            return CheckResult("termination-semantics", False,
                               f"2I selection {rep.selection} != {list(range(k))}")
        if abs(rep.final_objective - k * math.log(2.0)) > 1e-12:
            return CheckResult("termination-semantics", False,
                               f"2I objective {rep.final_objective} != {k * math.log(2.0)}")
        if rep.offdiag_count != triangle(k):
            return CheckResult("termination-semantics", False,
                               f"2I off-diagonal count {rep.offdiag_count} != {triangle(k)}")
    return CheckResult("termination-semantics", True,
                       "identity stops at the empty set; 2I selects 0..k-1 exactly")


def check_monotone_bound(instances: int = 50, seed0: int = 2000) -> CheckResult:
    """Greedy reaches (1 - 1/e) of the exhaustive optimum on monotone kernels."""
    factor = 1.0 - 1.0 / math.e
    for t in range(instances):
        rng = np.random.default_rng(seed0 + t)
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(4, n) + 1))
        # unit-shifted Gram kernel: smallest eigenvalue >= 1, hence monotone
        oracle = build_synthetic_oracle(n, n, seed0 + t, "L", scale=1.0, shift=1.0)
        matrix = oracle.materialize()
        rep = lazy_fast_greedy(oracle, GreedyConfig(k=k))
        _, best = reference.exhaustive_map(matrix, k)
        if rep.final_objective < factor * best - 1e-9:
            return CheckResult("monotone-approx-bound", False,
                               f"instance {t}: greedy {rep.final_objective} < "
                               f"{factor} * {best} - 1e-9")
        if best < rep.final_objective - 1e-9:
            return CheckResult("monotone-approx-bound", False,
                               f"instance {t}: exhaustive optimum below greedy output")
    return CheckResult("monotone-approx-bound", True,
                       f"{instances} monotone instances within the (1-1/e) bound")


# -- variants ----------------------------------------------------------------

def check_variant_coupling(instances: int = 50, seed0: int = 3000) -> CheckResult:
    """Each accelerated variant matches its brute-force twin draw for draw."""
    for t in range(instances):
        rng = np.random.default_rng(seed0 + t)
        k = int(rng.integers(1, 7))
        n = int(rng.integers(4 * k, 31))
        d = int(rng.integers(2, 31))
        oracle = build_synthetic_oracle(n, d, seed0 + t, "B")
        seed = seed0 + 7 * t

        cfg = VariantConfig(k=k)
        fast_rep = random_greedy_lf(oracle, cfg, DecisionStream(seed))
        naive_rep = naive_twin_report("random", oracle, k, seed)
        if fast_rep.selection != naive_rep.selection:
            return CheckResult("variant-coupling", False,
                               f"instance {t}: random greedy diverged: "
                               f"{fast_rep.selection} vs {naive_rep.selection}")
        if fast_rep.extras["rank_draws"] != naive_rep.extras["rank_draws"]:
            return CheckResult("variant-coupling", False,
                               f"instance {t}: rank draws diverged")
        if set(fast_rep.extras["dropped"]) & set(naive_rep.selection):
            return CheckResult("variant-coupling", False,
                               f"instance {t}: a dropped element was selected by the twin")
        lo, hi = random_greedy_band(n, k, len(fast_rep.selection))
        if not lo <= fast_rep.offdiag_count <= hi:
            return CheckResult("variant-coupling", False,
                               f"instance {t}: random count {fast_rep.offdiag_count} outside [{lo},{hi}]")

        eps = float(rng.uniform(0.05, 0.9))
        cfg = VariantConfig(k=k, epsilon=eps)
        fast_rep = stochastic_greedy_lf(oracle, cfg, DecisionStream(seed))
        naive_rep = naive_twin_report("stochastic", oracle, k, seed, epsilon=eps)
        if fast_rep.selection != naive_rep.selection:
            return CheckResult("variant-coupling", False,
                               f"instance {t}: stochastic greedy diverged (eps={eps}): "
                               f"{fast_rep.selection} vs {naive_rep.selection}")
        s = stochastic_sample_size(n, k, eps)
        hi = stochastic_upper_bound(n, k, s)
        if not triangle(len(fast_rep.selection)) <= fast_rep.offdiag_count <= hi:
            return CheckResult("variant-coupling", False,
                               f"instance {t}: stochastic count {fast_rep.offdiag_count} "
                               f"outside [{triangle(len(fast_rep.selection))},{hi}]")

        cfg = VariantConfig(k=k)
        fast_rep = interlace_greedy_lf(oracle, cfg)
        naive_rep = naive_twin_report("interlace", oracle, k, seed)
        if fast_rep.selection != naive_rep.selection:
            return CheckResult("variant-coupling", False,
                               f"instance {t}: interlace greedy diverged: "
                               f"{fast_rep.selection} vs {naive_rep.selection}")
        commits = [len(seq) for seq in fast_rep.extras["sequences"].values()]
        if len(commits) == 2:
            commits += [0, 0]
        lo, hi = interlace_band(n, k, commits)
        if not lo <= fast_rep.offdiag_count <= hi:
            return CheckResult("variant-coupling", False,
                               f"instance {t}: interlace count {fast_rep.offdiag_count} "
                               f"outside [{lo},{hi}]")
        matrix = oracle.materialize()
        best = fast_rep.final_objective
        for seq in fast_rep.extras["sequences"].values():
            for m in range(len(seq) + 1):
                pref = reference.log_det(matrix, seq[:m])
                if pref > best + 1e-8:
                    return CheckResult("variant-coupling", False,
                                       f"instance {t}: prefix beats returned objective")
    return CheckResult("variant-coupling", True,
                       f"{instances} instances per variant; selections identical, bands hold")


# -- double greedy -----------------------------------------------------------

def check_double(instances: int = 50, seed0: int = 4000) -> CheckResult:
    """Coupled naive/fast double greedy; per-step gain identities."""
    for t in range(instances):
        rng = np.random.default_rng(seed0 + t)
        n = int(rng.integers(4, 31))
        d = n + int(rng.integers(0, 8))
        oracle = build_synthetic_oracle(n, d, seed0 + t, "B", scale=0.9, shift=0.1)
        seed = seed0 + 13 * t
        fast_rep = fast_double_greedy(oracle, DecisionStream(seed))
        naive_rep = naive_double_greedy(oracle.materialize(), DecisionStream(seed))
        if fast_rep.selection != naive_rep.selection:
            return CheckResult("double-coupling", False,
                               f"instance {t}: selections diverged: "
                               f"{fast_rep.selection} vs {naive_rep.selection}")
        for step, ((fa, fb), (na, nb)) in enumerate(
                zip(fast_rep.extras["ab_gains"], naive_rep.extras["ab_gains"])):
            if not (_close_rel(fa, na, GAIN_REL_TOL) and _close_rel(fb, nb, GAIN_REL_TOL)):
                return CheckResult("double-coupling", False,
                                   f"instance {t} step {step}: gains ({fa},{fb}) vs ({na},{nb})")
    return CheckResult("double-coupling", True,
                       f"{instances} instances: identical selections, gains within 1e-8")


def check_jacobi(trials: int = 200, seed0: int = 5000) -> CheckResult:
    """Complementary-minor identity on random positive definite matrices."""
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(seed0 + t)
        n = int(rng.integers(2, 11))
        root = rng.standard_normal((n, n))
        matrix = root.T @ root + 0.5 * np.eye(n)
        size = int(rng.integers(0, n))
        subset = sorted(rng.permutation(n)[:size].tolist())
        outside = [i for i in range(n) if i not in subset]
        i = int(outside[rng.integers(0, len(outside))])
        lhs, rhs = jacobi_gain_check(matrix, subset, i)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        if err > 1e-8 * max(1.0, abs(lhs), abs(rhs)):
            return CheckResult("jacobi-identity", False,
                               f"trial {t}: {lhs} vs {rhs} (err {err:.2e})")
    return CheckResult("jacobi-identity", True, f"{trials} trials, worst abs err {worst:.2e}")


def check_double_half_expectation(n: int = 10, seed0: int = 6000, runs: int = 200) -> CheckResult:
    """Statistical half-of-optimum check (reported, never gating)."""
    oracle = build_synthetic_oracle(n, n, seed0, "B", scale=0.9, shift=0.1)
    matrix = oracle.materialize()
    _, best = reference.exhaustive_map(matrix, None)
    values = [fast_double_greedy(oracle, DecisionStream(seed0 + r)).final_objective
              for r in range(runs)]
    mean = float(np.mean(values))
    sem = float(np.std(values, ddof=1) / math.sqrt(runs))
    ok = mean >= 0.5 * best - 3.0 * sem
    return CheckResult(
        "double-half-expectation", True,
        f"mean {mean:.4f} vs 0.5*opt {0.5 * best:.4f} (sem {sem:.4f}) -> "
        f"{'holds' if ok else 'below bound'} [informational]")


# -- work savings -------------------------------------------------------------

def check_lazy_savings(n: int = 2000, d: int | None = None, k: int = 100,
                       seeds=(1, 2, 3, 4, 5)) -> CheckResult:
    """Lazy refreshes do under half the eager off-diagonal work, seed-averaged."""
    rows = []
    fast_counts, lazy_counts = [], []
    for seed in seeds:
        oracle = build_synthetic_oracle(n, d, seed, "B")
        fast_rep = run_algorithm("fast", oracle, k, seed=seed)
        lf_rep = run_algorithm("lazyfast", oracle, k, seed=seed)
        fast_counts.append(fast_rep.offdiag_count)
        lazy_counts.append(lf_rep.offdiag_count)
        rows.append(_report_row(fast_rep))
        rows.append(_report_row(lf_rep))
    mean_fast = float(np.mean(fast_counts))
    mean_lazy = float(np.mean(lazy_counts))
    warnings = soft_speed_warnings(rows)
    detail = (f"mean counts: lazyfast {mean_lazy:.0f} vs fast {mean_fast:.0f} "
              f"({mean_lazy / mean_fast:.1%}); {len(warnings)} soft speed warning(s)")
    if mean_lazy >= 0.5 * mean_fast:
        return CheckResult("lazy-savings", False, detail)
    for w in warnings:
        detail += f"; {w}"
    return CheckResult("lazy-savings", True, detail)


# -- data pipeline -------------------------------------------------------------

def check_datagen(tmpdir=None) -> CheckResult:
    """Seed determinism, binarization rules, and format round-trips."""
    a = gen_synthetic(SyntheticSpec(n=5, d=7, seed=42))
    b = gen_synthetic(SyntheticSpec(n=5, d=7, seed=42))
    if not np.array_equal(a, b):
        return CheckResult("datagen", False, "same seed produced different matrices")
    if a.shape != (7, 5):
        return CheckResult("datagen", False, f"unexpected shape {a.shape}")

    with tempfile.TemporaryDirectory(dir=tmpdir) as td:
        td = Path(td)
        p1, p2 = td / "a.dppm1", td / "b.dppm1"
        matrixio.write_dense(p1, a)
        matrixio.write_dense(p2, b)
        if p1.read_bytes() != p2.read_bytes():
            return CheckResult("datagen", False, "dense files not byte-identical")
        if not np.array_equal(matrixio.read_dense(p1), a):
            return CheckResult("datagen", False, "dense round-trip changed values")

        ratings = td / "toy.csv"
        ratings.write_text("u1,m1,5\nu1,m2,3\nu2,m1,4\n")
        cols, idmap = ingest_ratings(RatingsSpec(path=ratings, threshold=4))
        if cols.ncols != 1 or cols.dim != 2:
            return CheckResult("datagen", False,
                               f"toy ingest gave {cols.ncols} items x {cols.dim} users")
        if cols.indices[0].tolist() != [0, 1] or cols.values[0].tolist() != [1.0, 1.0]:
            return CheckResult("datagen", False, "toy column contents wrong")
        sp = td / "toy.dpps1"
        matrixio.write_sparse(sp, cols)
        back = matrixio.read_sparse(sp)
        if not all(np.array_equal(x, y) for x, y in zip(back.indices, cols.indices)):
            return CheckResult("datagen", False, "sparse round-trip changed indices")
    return CheckResult("datagen", True, "deterministic generation; toy ingest and round-trips hold")


# -- battery -------------------------------------------------------------------

def run_all(quick: bool = False) -> list[CheckResult]:
    if quick:
        return [
            check_pqueue(total_ops=20_000),
            check_kernel(trials=8),
            check_gain_identity(instances=10),
            check_pythagoras(instances=3),
            check_row_independence(),
            check_objective_reconstruction(instances=3),
            check_four_way(instances=15),
            check_termination(),
            check_monotone_bound(instances=10),
            check_variant_coupling(instances=10),
            check_double(instances=10),
            check_jacobi(trials=50),
            check_datagen(),
            check_lazy_savings(n=400, k=40, seeds=(1, 2)),
        ]
    return [
        check_pqueue(),
        check_kernel(),
        check_gain_identity(),
        check_pythagoras(),
        check_row_independence(),
        check_objective_reconstruction(),
        check_four_way(),
        check_termination(),
        check_monotone_bound(),
        check_variant_coupling(),
        check_double(),
        check_jacobi(),
        check_double_half_expectation(),
        check_datagen(),
        check_lazy_savings(),
    ]
