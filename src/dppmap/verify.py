"""Invariant and differential checks over the whole solver family.

Each check returns a :class:`CheckResult`; :func:`run_all` executes the
battery (``quick`` trims instance counts).  The same functions back the
acceptance test suite, which pins the full instance counts and tolerances.
Each check fixes its own seeds; only its instance or trial count (and the
lazy-savings sizes) differ between quick, full and the tests.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrixio, reference
from .bench import build_synthetic_oracle, run_algorithm, soft_speed_warnings
from .cholesky import WINDOW, CholeskyState
from .datagen import SyntheticSpec, binarize_ratings, gen_synthetic, read_triples
from .doublegreedy import jacobi_gain_check
from .kernel import KernelOracle, SparseColumns
from .pqueue import LazyMaxQueue
from .variants import (
    greedy_band,
    interlace_band,
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

def check_pqueue(total_ops: int = 100_000) -> CheckResult:
    """Differential test against a linear-scan model of live entries.

    Pushes, exclusions, peeks and pops come in equal shares; now and then a
    ``clear`` empties the queue and the model, and exclusions stay.  The
    queue's ``op_count`` must count the build, each push and each pop.
    """
    rng = np.random.default_rng(11)
    sequences = 20
    per_seq = total_ops // sequences
    ops_done = 0
    for _ in range(sequences):
        n = int(rng.integers(4, 40))
        keys = rng.integers(0, 12, size=n).astype(float)  # collisions on purpose
        queue = LazyMaxQueue.build(keys)
        model: dict[int, float] = {i: float(k) for i, k in enumerate(keys)}
        excluded: set[int] = set()
        counted = n  # the build counts one operation per key
        for _ in range(per_seq):
            op = rng.integers(0, 4)
            ops_done += 1
            live = {i: k for i, k in model.items() if i not in excluded}
            if rng.random() < 0.02:
                queue.clear()
                model.clear()
            elif op == 0:
                i = int(rng.integers(0, n))
                key = float(rng.integers(0, 12))
                queue.push(i, key)
                model[i] = key
                counted += 1
            elif op == 1:
                i = int(rng.integers(0, n))
                queue.exclude(i)
                excluded.add(i)
            elif op == 2:
                want = max(live.items(), key=lambda kv: (kv[1], -kv[0])) if live else None
                got = queue.peek_entry()
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
                counted += 1
        if queue.op_count != counted:
            return CheckResult("pqueue-differential", False, f"op_count {queue.op_count} != {counted}")
    return CheckResult("pqueue-differential", True, f"{ops_done} ops agree with the scan model")


# -- kernel layer ------------------------------------------------------------

def _kernel_trial_features(rng, kind: str) -> np.ndarray:
    """A small feature matrix with zeros: Gaussian, 0/1, or signed integers in [-3, 3]."""
    d = int(rng.integers(2, 12))
    n = int(rng.integers(2, 12))
    if kind == "binary":
        return (rng.random((d, n)) < 0.4).astype(np.float64)
    dense = rng.standard_normal((d, n)) if kind == "gaussian" else rng.integers(-3, 4, (d, n)).astype(np.float64)
    dense[rng.random((d, n)) < 0.4] = 0.0
    return dense


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def check_kernel(trials: int = 20) -> CheckResult:
    """Symmetry, bitwise sparse/dense agreement, and PSD principal minors.

    Integer features put the sparse oracle on its exact ``np.dot`` path, so
    they are compared by their bits like the Gaussian ones.  Each sparse pair
    is looked up in both argument orders, which gathers in both directions.
    """
    rng = np.random.default_rng(12)
    kinds = ["gaussian"] * trials + ["binary", "signed"] * (trials // 2)
    for trial, kind in enumerate(kinds):
        dense = _kernel_trial_features(rng, kind)
        n = dense.shape[1]
        ora_dense = KernelOracle.from_dense_features(dense)
        ora_sparse = KernelOracle.from_sparse_features(SparseColumns.from_dense(dense))
        for i in range(n):
            for j in range(n):
                de = _bits(ora_dense.entry(i, j))
                if not de == _bits(ora_sparse.entry(i, j)) == _bits(ora_sparse.entry(j, i)):
                    return CheckResult("kernel-consistency", False,
                                       f"trial {trial} ({kind}): sparse/dense differ at ({i},{j})")
                if de != _bits(ora_dense.entry(j, i)):
                    return CheckResult("kernel-consistency", False,
                                       f"trial {trial} ({kind}): asymmetry at ({i},{j})")
        subset = rng.permutation(n)[: min(8, n)]
        gram = np.array([[ora_dense.entry(int(i), int(j)) for j in subset] for i in subset])
        if np.min(np.linalg.eigvalsh(gram)) < -1e-10:
            return CheckResult("kernel-consistency", False, f"trial {trial} ({kind}): minor not PSD")
    return CheckResult("kernel-consistency", True,
                       f"{trials} Gaussian and {len(kinds) - trials} integer feature matrices agree bit for bit")


# -- incremental factor ------------------------------------------------------

def check_gain_identity(instances: int = 50) -> CheckResult:
    """Incremental pivot gains match brute-force log-det differences."""
    worst = 0.0
    pairs = 0
    for t in range(instances):
        rng = np.random.default_rng(100 + t)
        n = int(rng.integers(4, 21))
        k = int(rng.integers(1, min(n, 6) + 1))
        oracle = build_synthetic_oracle(n, n, 100 + t, "L")
        matrix = oracle.materialize()
        state = CholeskyState(oracle, k)
        for _step in range(k):
            base = reference.log_det(matrix, state.selection)
            best_i, best_gain = -1, -math.inf
            for brute, i, brute_obj in reference.gains(matrix, state.selection, base,
                                                       np.flatnonzero(~state.in_selection)):
                state.update_row(i)
                inc = state.marginal_gain(i)
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


def check_pythagoras(instances: int = 10) -> CheckResult:
    """Row norms of the factor decompose the kernel diagonal."""
    for t in range(instances):
        oracle = build_synthetic_oracle(12, 12, 140 + t, "B")
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


def check_row_independence() -> CheckResult:
    """Row refresh order and vectorized prefetch cannot change any value, bit for bit.

    Three schedules fill the same factor: scalar catch-up in ascending and in
    descending row order, and one that prefetches row blocks of varying
    start after each commit before the scalar catch-up adopts them.  Two more
    follow fast double greedy at ``n = 2*WINDOW + 5``, so the in-order dot
    cache's window rolls over at least twice: commits in index order that
    skip some items, each followed by ``prefetch(i + 1)``, once
    uninterrupted and once broken by a scalar catch-up and by a generic
    prefetch, each of which forces a cache rebuild.  A sixth alternates the
    same commits between a factor over the kernel and one over its inverse,
    which takes the other items, each commit followed by ``prefetch(i + 1)``
    on the factor that received it, as fast double greedy does.  Factor and
    pivots must match the ascending scalar schedule byte for byte, sign of
    zero included.
    """
    def run(oracle, commits, order, prefetch_from=None):
        state = CholeskyState(oracle, len(commits))
        for c, lo in zip(commits, prefetch_from or [None] * len(commits)):
            state.update_row(c)
            state.commit(c)
            if lo is not None:
                state.prefetch(lo)
        for i in order:
            if not state.in_selection[i]:
                state.update_row(i)
        return state

    def in_order(oracle, commits, catch_up_at=None, generic_at=None):
        n = oracle.n
        state = CholeskyState(oracle, len(commits))
        for i in range(n):
            state.update_row(i)
            if i not in commits:
                continue
            state.commit(i)
            if i == catch_up_at:  # scalar catch-up in place of the prefetch
                for r in range(i + 1, n):
                    state.update_row(r)
            elif i == generic_at:  # a generic sweep from rows the run already passed
                state.prefetch(i - 3)
            else:
                state.prefetch(i + 1)
        for i in range(n):
            if not state.in_selection[i]:
                state.update_row(i)
        return state

    def alternating(oracle, inverse, commits):
        n = oracle.n
        grow, shrink = CholeskyState(oracle, len(commits)), CholeskyState(inverse, n - len(commits))
        for i in range(n):
            grow.update_row(i)
            shrink.update_row(i)
            side = grow if i in commits else shrink
            side.commit(i)
            side.prefetch(i + 1)
        for state in (grow, shrink):
            for i in range(n):
                if not state.in_selection[i]:
                    state.update_row(i)
        return grow, shrink

    def differ(want, got, label):
        if want.factor.tobytes() != got.factor.tobytes():
            return f"factor entries differ: ascending vs {label}"
        if want.pivots.tobytes() != got.pivots.tobytes():
            return f"pivots differ: ascending vs {label}"
        return None

    oracle = build_synthetic_oracle(14, 14, 150, "B")
    commits = [3, 7, 1, 10]
    prefetch_from = [5, 0, 12, 2]  # after each commit; rows reach the last commit with mixed progress
    ascending = run(oracle, commits, range(14))
    for label, other in (("descending", run(oracle, commits, range(13, -1, -1))),
                         ("prefetched", run(oracle, commits, range(14), prefetch_from))):
        fault = differ(ascending, other, label)
        if fault:
            return CheckResult("row-independence", False, fault)

    n = 2 * WINDOW + 5
    oracle = build_synthetic_oracle(n, n, 150, "B", 0.9, 0.1)
    commits = [i for i in range(n) if i % 3 != 1 and i % 7 != 5]  # the other side takes the rest
    ascending = run(oracle, commits, range(n))
    for label, breaks in (("in-order", ()), ("in-order, interrupted", (commits[20], commits[60]))):
        other = in_order(oracle, set(commits), *breaks)
        if other._dots_cols != len(commits) - 1:  # the last commit, item n - 1, has no rows to prefetch
            return CheckResult("row-independence", False, f"{label}: the in-order path did not reach the end")
        fault = differ(ascending, other, label)
        if fault:
            return CheckResult("row-independence", False, fault)

    # like fast_double_greedy, which wraps the inverse with the bare constructor
    inverse = KernelOracle(matrix=np.ascontiguousarray(reference.inverse(oracle.materialize())))
    taken = set(commits)
    rest = [i for i in range(n) if i not in taken]
    grow, shrink = alternating(oracle, inverse, taken)
    for label, state, want, side in (("alternating, kernel", grow, ascending, commits),
                                     ("alternating, inverse", shrink, run(inverse, rest, range(n)), rest)):
        if state._dots_cols != sum(i < n - 1 for i in side):
            return CheckResult("row-independence", False, f"{label}: the in-order path did not reach the end")
        fault = differ(want, state, label)
        if fault:
            return CheckResult("row-independence", False, fault)
    return CheckResult("row-independence", True,
                       "refresh order, prefetch and the in-order dot cache, on one factor or"
                       " alternating between a kernel's and its inverse's, are bitwise irrelevant")


def check_objective_reconstruction(instances: int = 10) -> CheckResult:
    """Accumulated pivot objectives match brute-force log-dets per prefix."""
    for t in range(instances):
        n = 16
        oracle = build_synthetic_oracle(n, n, 160 + t, "B")
        matrix = oracle.materialize()
        report = run_algorithm("lazyfast", oracle, 6)
        for m in range(1, len(report.selection) + 1):
            want = reference.log_det(matrix, report.selection[:m])
            got = report.objective_trace[m - 1]
            if not _close_rel(got, want, OBJ_REL_TOL):
                return CheckResult("objective-reconstruction", False,
                                   f"instance {t}: prefix {m}: {got} vs {want}")
    return CheckResult("objective-reconstruction", True,
                       f"{instances} runs, every prefix within 1e-8 relative")


# -- constrained greedy family ----------------------------------------------

def check_four_way(instances: int = 100) -> CheckResult:
    """All four greedy implementations agree; objectives match brute force."""
    t_start = time.perf_counter()
    for t in range(instances):
        rng = np.random.default_rng(1000 + t)
        n = int(rng.integers(10, 41))
        k = int(rng.integers(1, 11))
        k = min(k, n)
        oracle = build_synthetic_oracle(n, n, 1000 + t, "B")
        reports = [run_algorithm(algo, oracle, k) for algo in ("naive", "lazy", "fast", "lazyfast")]
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
    return CheckResult("four-way-equivalence", True,
                       f"{instances} instances agree ({elapsed:.1f}s)")


def check_termination() -> CheckResult:
    """Identity kernels stop every algorithm at the empty set; 2I fills k."""
    for n, k in ((6, 3), (12, 3)):
        oracle = KernelOracle.from_dense_kernel(np.eye(n))
        vk = max(1, n // 4)  # satisfies every variant's n >= c*k precondition
        runs = [(algo, k) for algo in ("naive", "lazy", "fast", "lazyfast")]
        runs += [(algo, vk) for algo in ("random", "stochastic", "interlace", "interlace-naive")]
        for algo, algo_k in runs:
            rep = run_algorithm(algo, oracle, algo_k, seed=3, epsilon=0.5)
            if rep.selection != []:
                return CheckResult("termination-semantics", False,
                                   f"{algo} selected {rep.selection} on the identity")
    for n, k in ((8, 3), (10, 5)):
        oracle = KernelOracle.from_dense_kernel(2.0 * np.eye(n))
        rep = run_algorithm("lazyfast", oracle, k)
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


def check_monotone_bound(instances: int = 50) -> CheckResult:
    """Greedy reaches (1 - 1/e) of the exhaustive optimum on monotone kernels."""
    factor = 1.0 - 1.0 / math.e
    for t in range(instances):
        rng = np.random.default_rng(2000 + t)
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(4, n) + 1))
        # unit-shifted Gram kernel: smallest eigenvalue >= 1, hence monotone
        oracle = build_synthetic_oracle(n, n, 2000 + t, "L", scale=1.0, shift=1.0)
        matrix = oracle.materialize()
        rep = run_algorithm("lazyfast", oracle, k)
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

def _zero_gain_features(rng, n: int, d: int) -> np.ndarray:
    """d Gaussian dimensions scaled by 1/sqrt(d), where 1 <= z < max(2, n // 2) items, then
    permuted among the rest, have exact zero gains: each is a 1.0 in a private extra dimension."""
    z = int(rng.integers(1, max(2, n // 2)))
    features = np.zeros((d + z, n))
    features[:d, z:] = rng.standard_normal((d, n - z)) / math.sqrt(d)
    features[d + np.arange(z), np.arange(z)] = 1.0
    return features[:, rng.permutation(n)]


def check_variant_coupling(instances: int = 50, first: int = 0) -> CheckResult:
    """Each accelerated variant matches its brute-force twin draw for draw.

    The twins agree on the selection and on the steps that commit nothing:
    random greedy's rank draws and dummy steps, stochastic greedy's skipped
    and boundary steps, and interlace greedy's four runs and best prefix.
    Random greedy's ``boundary_gain_steps`` are left out: the accelerated
    solver judges the first nonpositive pivot it pops, not the rank-th best
    gain its twin judges, and drops that item for good, so on the same draws
    the two can record different boundary steps.  Each instance's sizes,
    seed and epsilon also run on :func:`_zero_gain_features`, in B and in L
    form, where steps meet the zero-gain boundary exactly.
    """
    with_steps = {"random dummy": 0, "random step-1 dummy": 0, "stochastic boundary": 0}  # zero-gain B runs
    for t in range(first, first + instances):
        rng = np.random.default_rng(3000 + t)
        k = int(rng.integers(1, 7))
        n = int(rng.integers(4 * k, 31))
        d = int(rng.integers(2, 31))
        seed = 3000 + 7 * t
        eps = float(rng.uniform(0.05, 0.9))  # stochastic greedy's; the other variants ignore it
        zero_gain = KernelOracle.from_dense_features(_zero_gain_features(rng, n, d))
        for where, oracle in ((f"instance {t}", build_synthetic_oracle(n, d, 3000 + t, "B")),
                              (f"zero-gain instance {t} (B)", zero_gain),
                              (f"zero-gain instance {t} (L)", KernelOracle.from_dense_kernel(zero_gain.materialize()))):
            def fail(fault: str) -> CheckResult:
                return CheckResult("variant-coupling", False, f"{where}: {fault}")

            twins = {}
            for algo, keys in (("random", ("rank_draws", "dummy_steps")),
                               ("stochastic", ("skipped_steps", "boundary_gain_steps")),
                               ("interlace", ("sequences", "best_prefix"))):
                twins[algo] = [run_algorithm(name, oracle, k, seed=seed, epsilon=eps)
                               for name in (algo, f"{algo}-naive")]
                views = [{**rep.extras, **vars(rep)} for rep in twins[algo]]
                for key in ("selection",) + keys:
                    if views[0][key] != views[1][key]:
                        return fail(f"{algo} greedy diverged (eps={eps}) in {key}: {views[0][key]} vs {views[1][key]}")
            if oracle is zero_gain:
                dummies = twins["random"][0].extras["dummy_steps"]
                with_steps["random dummy"] += bool(dummies)
                with_steps["random step-1 dummy"] += 1 in dummies
                with_steps["stochastic boundary"] += bool(twins["stochastic"][0].boundary_gain_steps)

            random_rep, stochastic_rep, interlace_rep = (reps[0] for reps in twins.values())
            if set(random_rep.extras["dropped"]) & set(twins["random"][1].selection):
                return fail("a dropped element was selected by the twin")
            bands = {  # rank draws only widen random's pool, so the eager sweep over all k steps still caps it
                "random": greedy_band(n, len(random_rep.selection), k),
                "stochastic": (triangle(len(stochastic_rep.selection)),
                               stochastic_upper_bound(n, k, stochastic_sample_size(n, k, eps))),
                "interlace": interlace_band(n, k, [len(seq) for seq in interlace_rep.extras["sequences"].values()])}
            for algo, (lo, hi) in bands.items():
                if not lo <= twins[algo][0].offdiag_count <= hi:
                    return fail(f"{algo} count {twins[algo][0].offdiag_count} outside [{lo},{hi}]")
            matrix = oracle.materialize()
            for seq in interlace_rep.extras["sequences"].values():
                if any(reference.log_det(matrix, seq[:m]) > interlace_rep.final_objective + 1e-8
                       for m in range(len(seq) + 1)):
                    return fail("prefix beats returned objective")
    counts = ", ".join(f"{kind} steps in {runs}" for kind, runs in with_steps.items())
    return CheckResult("variant-coupling", True,
                       f"{instances} instances per variant and form (Gaussian B; zero-gain B, L), "
                       f"{counts} of the zero-gain B runs; selections, steps without a commit "
                       "(interlace: all four runs and the best prefix) identical, bands hold")


# -- double greedy -----------------------------------------------------------

def check_double(instances: int = 50) -> CheckResult:
    """Coupled naive/fast double greedy under two adjustments; per-step gain identities.

    The default adjustment (scale 0.9, shift 0.1) grows nearly every item.
    The mixed family keeps the same instance shapes and seeds at scale
    ``1.5 / d``, where about half of the decisions commit on the shrink side.
    """
    shrinks = {"0.9": 0, "1.5/d": 0}  # shrink commits per scale
    decisions = 0  # per scale: both families share the instance shapes
    for t in range(instances):
        rng = np.random.default_rng(4000 + t)
        n = int(rng.integers(4, 31))
        d = n + int(rng.integers(0, 8))
        seed = 4000 + 13 * t
        decisions += n
        for family in shrinks:
            scale = 0.9 if family == "0.9" else 1.5 / d
            oracle = build_synthetic_oracle(n, d, 4000 + t, "B", scale=scale, shift=0.1)
            fast_rep = run_algorithm("double-fast", oracle, n, seed=seed)
            naive_rep = run_algorithm("double-naive", oracle, n, seed=seed)
            if fast_rep.selection != naive_rep.selection:
                return CheckResult("double-coupling", False,
                                   f"scale {family} instance {t}: selections diverged: "
                                   f"{fast_rep.selection} vs {naive_rep.selection}")
            for step, ((fa, fb), (na, nb)) in enumerate(
                    zip(fast_rep.extras["ab_gains"], naive_rep.extras["ab_gains"])):
                if not (_close_rel(fa, na, GAIN_REL_TOL) and _close_rel(fb, nb, GAIN_REL_TOL)):
                    return CheckResult("double-coupling", False,
                                       f"scale {family} instance {t} step {step}: "
                                       f"gains ({fa},{fb}) vs ({na},{nb})")
            shrinks[family] += n - len(fast_rep.selection)
    counts = "; ".join(f"scale {family}: {count} of {decisions} decisions shrink commits"
                       for family, count in shrinks.items())
    return CheckResult("double-coupling", True,
                       f"{instances} instances per scale (shift 0.1): identical selections, "
                       f"gains within 1e-8; {counts}")


def check_jacobi(trials: int = 200) -> CheckResult:
    """Complementary-minor identity on random positive definite matrices."""
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(5000 + t)
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


def check_double_half_expectation() -> CheckResult:
    """Statistical half-of-optimum check over 200 seeds on one n = 10 kernel (reported, never gating)."""
    oracle = build_synthetic_oracle(10, 10, 6000, "B", scale=0.9, shift=0.1)
    matrix = oracle.materialize()
    _, best = reference.exhaustive_map(matrix, None)
    values = [run_algorithm("double-fast", oracle, 10, seed=6000 + r).final_objective
              for r in range(200)]
    mean = float(np.mean(values))
    sem = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    ok = mean >= 0.5 * best - 3.0 * sem
    return CheckResult(
        "double-half-expectation", True,
        f"mean {mean:.4f} vs 0.5*opt {0.5 * best:.4f} (sem {sem:.4f}) -> "
        f"{'holds' if ok else 'below bound'} [informational]")


# -- work savings -------------------------------------------------------------

def check_lazy_savings(n: int = 2000, k: int = 100, seeds=(1, 2, 3, 4, 5)) -> CheckResult:
    """Lazy refreshes do under half the eager off-diagonal work, seed-averaged, on n = d instances."""
    reports = []
    fast_counts, lazy_counts = [], []
    for seed in seeds:
        oracle = build_synthetic_oracle(n, n, seed, "B")
        fast_rep = run_algorithm("fast", oracle, k, seed=seed)
        lf_rep = run_algorithm("lazyfast", oracle, k, seed=seed)
        fast_counts.append(fast_rep.offdiag_count)
        lazy_counts.append(lf_rep.offdiag_count)
        reports += [fast_rep, lf_rep]
    mean_fast = float(np.mean(fast_counts))
    mean_lazy = float(np.mean(lazy_counts))
    warnings = soft_speed_warnings(reports)
    detail = (f"mean counts: lazyfast {mean_lazy:.0f} vs fast {mean_fast:.0f} "
              f"({mean_lazy / mean_fast:.1%}); {len(warnings)} soft speed warning(s)")
    if mean_lazy >= 0.5 * mean_fast:
        return CheckResult("lazy-savings", False, detail)
    for w in warnings:
        detail += f"; {w}"
    return CheckResult("lazy-savings", True, detail)


# -- data pipeline -------------------------------------------------------------

def check_datagen() -> CheckResult:
    """Seed determinism, binarization rules, and format round-trips."""
    a = gen_synthetic(SyntheticSpec(n=5, d=7, seed=42))
    b = gen_synthetic(SyntheticSpec(n=5, d=7, seed=42))
    if not np.array_equal(a, b):
        return CheckResult("datagen", False, "same seed produced different matrices")
    if a.shape != (7, 5):
        return CheckResult("datagen", False, f"unexpected shape {a.shape}")

    with tempfile.TemporaryDirectory() as td:
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
        cols, idmap = binarize_ratings(read_triples(ratings), threshold=4)
        if cols.ncols != 1 or cols.dim != 2:
            return CheckResult("datagen", False,
                               f"toy ingest gave {cols.ncols} items x {cols.dim} users")
        if cols.indptr.tolist() != [0, 2] or cols.indices.tolist() != [0, 1] or cols.values.tolist() != [1.0, 1.0]:
            return CheckResult("datagen", False, "toy column contents wrong")
        sp = td / "toy.dpps1"
        matrixio.write_sparse(sp, cols)
        back = matrixio.read_sparse(sp)
        for name in ("indptr", "indices", "values"):
            if not np.array_equal(getattr(back, name), getattr(cols, name)):
                return CheckResult("datagen", False, f"sparse round-trip changed {name}")
    return CheckResult("datagen", True, "deterministic generation; toy ingest and round-trips hold")


# -- battery -------------------------------------------------------------------

# (check, its keyword arguments under --quick, or None to leave it out of the quick battery)
_BATTERY = (
    (check_pqueue, {"total_ops": 20_000}),
    (check_kernel, {"trials": 8}),
    (check_gain_identity, {"instances": 10}),
    (check_pythagoras, {"instances": 3}),
    (check_row_independence, {}),
    (check_objective_reconstruction, {"instances": 3}),
    (check_four_way, {"instances": 15}),
    (check_termination, {}),
    (check_monotone_bound, {"instances": 10}),
    (check_variant_coupling, {"instances": 10, "first": 30}),  # instances 30..39: 36 declines random's step 1
    (check_double, {"instances": 10}),
    (check_jacobi, {"trials": 50}),
    (check_double_half_expectation, None),
    (check_datagen, {}),
    (check_lazy_savings, {"n": 400, "k": 40, "seeds": (1, 2)}),
)


def run_all(quick: bool = False) -> list[CheckResult]:
    return [check(**quick_kwargs) if quick else check() for check, quick_kwargs in _BATTERY
            if not quick or quick_kwargs is not None]
