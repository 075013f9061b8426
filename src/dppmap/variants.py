"""Lazy + fast implementations of the randomized and interlaced greedy variants.

Each algorithm here has a brute-force twin in :mod:`dppmap.naive_variants`
that consumes the identical :class:`~dppmap.stream.DecisionStream` draws, so
the pairs can be differential-tested for exact selection equality.

Randomness protocol (must match the naive twins draw for draw):

* random greedy  - one ``rank(k)`` draw per step, always.
* stochastic greedy - one ``sample_sorted`` call per step over the ascending
  complement of the current selection.
* interlace greedy - deterministic, no draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cholesky import CholeskyState
from .greedy import ZERO_GAIN_PIVOT, pop_fresh_argmax
from .kernel import KernelOracle
from .pqueue import LazyMaxQueue
from .report import RunReport, SolverRun
from .stream import DecisionStream


@dataclass
class VariantConfig:
    k: int
    epsilon: float | None = None  # stochastic greedy only
    seed: int = 0  # read by no solver: the draws and the report's seed come from the DecisionStream


def stochastic_sample_size(n: int, k: int, epsilon: float) -> int:
    """Per-step sample size ceil((n/k) * ln(1/epsilon))."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    return math.ceil((n / k) * math.log(1.0 / epsilon))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def random_greedy_lf(oracle: KernelOracle, cfg: VariantConfig, stream: DecisionStream,
                     deadline: float | None = None) -> RunReport:
    """Random greedy: commit the element with the rank-th largest gain.

    Per step a rank is drawn uniformly from {1..k}; the top-(rank) gains are
    located by lazy pops and the last of them is committed if its gain is
    strictly positive.  A popped winner whose gain is nonpositive ends the
    step with no commit (the dummy branch) and is discarded for good - it can
    never win later because gains only shrink.
    """
    _require(oracle.n >= 2 * cfg.k, f"random greedy requires n >= 2k (n={oracle.n}, k={cfg.k})")
    run = SolverRun("random", oracle, cfg.k, seed=stream.seed)
    report = run.report
    state = CholeskyState(oracle, cfg.k)
    queue = LazyMaxQueue.build(state.pivots)
    rank_draws: list[int] = []
    dropped: list[int] = []
    dummy_steps: list[int] = []
    for step in run.steps(cfg.k, deadline):
        rank = stream.rank(cfg.k)
        rank_draws.append(rank)
        pool: list[int] = []
        committed = None
        while len(pool) < rank:
            i, _ = pop_fresh_argmax(queue, state, None)
            if i is None:
                break  # queue exhausted: fewer live items than rank
            if state.pivots[i] <= ZERO_GAIN_PIVOT:
                if state.pivots[i] == ZERO_GAIN_PIVOT:
                    report.boundary_gain_steps.append(step)
                dropped.append(i)
                break  # rank-th best gain is nonpositive: dummy step
            pool.append(i)
            if len(pool) == rank:
                committed = i
                report.gains.append(state.marginal_gain(i))
                state.commit(i)
        for i in pool:
            if i != committed:
                queue.push(i, state.pivots[i])
        if committed is None:
            dummy_steps.append(step)
    report.extras.update(rank_draws=rank_draws, dropped=dropped, dummy_steps=dummy_steps)
    return run.finish(state, pq_ops=queue.op_count)


def stochastic_greedy_lf(oracle: KernelOracle, cfg: VariantConfig, stream: DecisionStream,
                         deadline: float | None = None) -> RunReport:
    """Stochastic greedy: per step, the best element of a uniform sample.

    Pivot state is global and persists across steps; each step builds a small
    throwaway queue over the sampled ids seeded with their current (stale)
    pivots, then refreshes lazily within the sample.  Row pivots are
    initialized from the kernel diagonal only when a row is first sampled.
    """
    _require(oracle.n >= 3 * cfg.k, f"stochastic greedy requires n >= 3k (n={oracle.n}, k={cfg.k})")
    if cfg.epsilon is None:
        raise ValueError("stochastic greedy requires epsilon")
    n = oracle.n
    s = stochastic_sample_size(n, cfg.k, cfg.epsilon)
    run = SolverRun("stochastic", oracle, cfg.k, seed=stream.seed, epsilon=cfg.epsilon)
    report = run.report
    state = CholeskyState(oracle, cfg.k, lazy_diag=True)
    sample_sizes: list[int] = []
    skipped_steps: list[int] = []
    pq_ops = 0
    for step in run.steps(cfg.k, deadline):
        pool = np.array([i for i in range(n) if not state.in_selection[i]], dtype=np.int64)
        sample = stream.sample_sorted(pool, s)
        sample_sizes.append(int(sample.size))
        queue = LazyMaxQueue(n)
        for i in sample:
            queue.push(int(i), state.touch(int(i)))
        winner, _ = pop_fresh_argmax(queue, state, None)
        pq_ops += queue.op_count
        if winner is None:
            skipped_steps.append(step)
            continue
        piv = float(state.pivots[winner])
        if piv > ZERO_GAIN_PIVOT:
            report.gains.append(state.marginal_gain(winner))
            state.commit(winner)
        else:
            if piv == ZERO_GAIN_PIVOT:
                report.boundary_gain_steps.append(step)
            skipped_steps.append(step)
    report.extras.update(sample_size=s, sample_sizes=sample_sizes, skipped_steps=skipped_steps)
    return run.finish(state, pq_ops=pq_ops)


def _interlaced_pair(run: SolverRun, k: int, seed_item: int | None, deadline):
    """Build two interlaced selections with mutual exclusion.

    Returns ``(state_a, state_b, pq_ops)``: the two factor states and the
    priority-queue operations spent; a deadline that cuts the pair short
    marks ``run``'s report timed out.  The caller reads prefix objectives off
    the states' commit traces, never recomputing them.
    """
    oracle = run.oracle
    state_a = CholeskyState(oracle, k)
    state_b = CholeskyState(oracle, k)
    queue_a = LazyMaxQueue.build(state_a.pivots)
    queue_b = LazyMaxQueue.build(state_b.pivots)

    def argmax_at_least_unit(state, queue):
        top = queue.peek_entry()
        if top is None or top[1] < 1.0:
            return None  # even the stale bound rules everything out
        i, _ = pop_fresh_argmax(queue, state, None)
        return i

    if seed_item is not None:
        for state, queue in ((state_a, queue_a), (state_b, queue_b)):
            state.commit(seed_item)
        for queue in (queue_a, queue_b):
            queue.exclude(seed_item)
    for _ in run.steps(k if seed_item is None else k - 1, deadline):
        i = argmax_at_least_unit(state_a, queue_a)
        if i is not None and state_a.pivots[i] >= 1.0:
            state_a.commit(i)
            queue_b.exclude(i)
        j = argmax_at_least_unit(state_b, queue_b)
        if j is not None and state_b.pivots[j] >= 1.0:
            state_b.commit(j)
            queue_a.exclude(j)
    return state_a, state_b, queue_a.op_count + queue_b.op_count


def interlace_greedy_lf(oracle: KernelOracle, cfg: VariantConfig,
                        deadline: float | None = None) -> RunReport:
    """Interlace greedy: two alternating runs, twice, best prefix wins.

    Phase one grows two mutually exclusive selections from scratch; phase two
    repeats with both selections seeded by phase one's first pick.  The
    result is the prefix with the largest accumulated objective among all
    prefixes of the four selections (the empty prefix included, which wins
    all-zero ties).  Deterministic: no randomness is consumed.  Reports
    ``steps_attempted = k`` whether or not a deadline cut the runs short.
    """
    _require(oracle.n >= 4 * cfg.k, f"interlace greedy requires n >= 4k (n={oracle.n}, k={cfg.k})")
    run = SolverRun("interlace", oracle, cfg.k)
    report = run.report
    state_a, state_b, ops = _interlaced_pair(run, cfg.k, None, deadline)
    runs = [("A", state_a), ("B", state_b)]
    if state_a.selection:
        state_c, state_d, ops2 = _interlaced_pair(run, cfg.k, state_a.selection[0], deadline)
        runs += [("C", state_c), ("D", state_d)]
        ops += ops2

    best_label, best_len, best_obj = "A", 0, 0.0
    for label, state in runs:
        for t in range(1, len(state.selection) + 1):
            obj = state.objective_trace[t - 1]
            if obj > best_obj:
                best_label, best_len, best_obj = label, t, obj
    best_state = dict(runs)[best_label]
    report.selection = list(best_state.selection[:best_len])
    report.objective_trace = list(best_state.objective_trace[:best_len])
    report.gains = [2.0 * math.log(p) for p in best_state.selected_pivots[:best_len]]
    report.final_objective = best_obj
    report.offdiag_count = sum(state.offdiag_count for _, state in runs)
    report.steps_attempted = cfg.k
    report.extras["sequences"] = {label: list(state.selection) for label, state in runs}
    report.extras["prefix_objectives"] = {
        label: [0.0] + list(state.objective_trace) for label, state in runs
    }
    report.extras["best_prefix"] = {"run": best_label, "length": best_len}
    return run.finish(pq_ops=ops)


# -- off-diagonal-count bands -----------------------------------------------

def triangle(m: int) -> int:
    return m * (m - 1) // 2


def sweep_total(n: int, steps: int) -> int:
    """Off-diagonals of full per-step sweeps: sum_{t<steps} (n - t)."""
    return max(0, (steps - 1) * n - triangle(steps))


def greedy_band(n: int, commits: int, attempted: int) -> tuple[int, int]:
    """[lo, hi] for the lazily updated greedy count.

    The committed rows alone contribute a triangle; at the other extreme
    every surviving row is refreshed through the last attempted step, which
    is exactly the eager sweep total.
    """
    return triangle(commits), sweep_total(n, attempted)


def random_greedy_band(n: int, k: int, commits: int) -> tuple[int, int]:
    """Rank draws only widen the pool, so the eager full-run sweep still caps
    the count; the lower bound is the committed triangle."""
    return triangle(commits), sweep_total(n, k)


def stochastic_upper_bound(n: int, k: int, s: int) -> int:
    """Worst-case count for sample-restricted refreshes.

    At most ``s`` rows are refreshed per step and a row only counts through
    its final refresh, so with q = n // s disjoint fresh samples available
    the adversarial schedule fills the last q steps with untouched rows (all
    steps when q >= k).  Also capped by the eager sweep total.
    """
    q, r = divmod(n, s)
    if q >= k:
        cap = s * triangle(k)
    else:
        cap = s * q * (2 * k - q - 1) // 2 + r * (k - q - 1)
    return min(cap, sweep_total(n, k))


def interlace_band(n: int, k: int, commit_counts) -> tuple[int, int]:
    """[lo, hi] across the four interlaced runs.

    Full runs commit k times each, giving the documented
    [2k(k-1), 4(n-k)(k-1)] band; short runs relax both ends to the provable
    per-run limits (committed triangle up to every-row-refreshed).
    """
    if all(m == k for m in commit_counts) and len(commit_counts) == 4:
        return 2 * k * (k - 1), 4 * (n - k) * (k - 1)
    lo = sum(triangle(m) for m in commit_counts)
    hi = sum(m * n - m * (m + 1) // 2 for m in commit_counts)
    return lo, hi
