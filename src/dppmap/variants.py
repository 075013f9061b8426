"""Lazy + fast implementations of the randomized and interlaced greedy variants.

Each algorithm here has a brute-force twin in :mod:`dppmap.naive_variants`
that consumes the identical :class:`~dppmap.stream.DecisionStream` draws, so
the pairs can be differential-tested for exact selection equality.  Both
interlace greedies run through one driver, :func:`interlace`, which owns the
phases, the best prefix and the report; they differ only in the pair builder
they hand it.

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
from .greedy import ZERO_GAIN_PIVOT, GreedyConfig, pop_fresh_argmax, require_positive_k
from .kernel import KernelOracle
from .pqueue import LazyMaxQueue
from .report import RunReport, SolverRun
from .stream import DecisionStream


@dataclass
class VariantConfig:
    k: int
    epsilon: float | None = None  # stochastic greedy only
    seed: int = 0  # read by no solver: the draws and the report's seed come from the DecisionStream

    def __post_init__(self):
        require_positive_k(self.k)


def require_size(name: str, n: int, k: int, ratio: int) -> None:
    """Raise ``ValueError`` unless ``n >= ratio * k``, the variant's precondition."""
    if n < ratio * k:
        raise ValueError(f"{name} greedy requires n >= {ratio}k (n={n}, k={k})")


def stochastic_sample_size(n: int, k: int, epsilon: float | None) -> int:
    """Per-step sample size ceil((n/k) * ln(1/epsilon))."""
    if epsilon is None:
        raise ValueError("stochastic greedy requires epsilon")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    return math.ceil((n / k) * math.log(1.0 / epsilon))


def random_greedy_lf(oracle: KernelOracle, cfg: VariantConfig, stream: DecisionStream,
                     deadline: float | None = None) -> RunReport:
    """Random greedy: commit the element with the rank-th largest gain.

    Per step a rank is drawn uniformly from {1..k}; the top-(rank) gains are
    located by lazy pops and the last of them is committed if its gain is
    strictly positive.  A popped winner whose gain is nonpositive ends the
    step with no commit (the dummy branch) and is discarded for good - it can
    never win later because gains only shrink.  Each step commits or drops
    at most one item, so with n >= 2k the queue always holds rank live items.
    """
    require_size("random", oracle.n, cfg.k, 2)
    run = SolverRun("random", oracle, cfg.k, seed=stream.seed)
    state = run.count(CholeskyState(oracle, cfg.k))
    queue = run.count(LazyMaxQueue.build(state.pivots))
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
            if state.pivots[i] <= ZERO_GAIN_PIVOT:
                run.decline(step, state.pivots[i], ZERO_GAIN_PIVOT)
                dropped.append(i)
                break  # rank-th best gain is nonpositive: dummy step
            pool.append(i)
            if len(pool) == rank:
                committed = i
                state.commit(i)
        for i in pool:
            if i != committed:
                queue.push(i, state.pivots[i])
        if committed is None:
            dummy_steps.append(step)
    run.report.extras.update(rank_draws=rank_draws, dropped=dropped, dummy_steps=dummy_steps)
    return run.finish(state)


def stochastic_greedy_lf(oracle: KernelOracle, cfg: VariantConfig, stream: DecisionStream,
                         deadline: float | None = None) -> RunReport:
    """Stochastic greedy: per step, the best element of a uniform sample.

    Pivot state is global and persists across steps.  One queue serves the
    whole run: each step clears it, pushes the sampled ids with their
    current (stale) pivots, then refreshes lazily within the sample.  Row
    pivots are initialized from the kernel diagonal only when a row is
    first sampled.  With n >= 3k, no sample is empty.
    """
    require_size("stochastic", oracle.n, cfg.k, 3)
    n = oracle.n
    s = stochastic_sample_size(n, cfg.k, cfg.epsilon)
    run = SolverRun("stochastic", oracle, cfg.k, seed=stream.seed, epsilon=cfg.epsilon)
    state = run.count(CholeskyState(oracle, cfg.k, lazy_diag=True))
    queue = run.count(LazyMaxQueue(n))
    sample_sizes: list[int] = []
    skipped_steps: list[int] = []
    for step in run.steps(cfg.k, deadline):
        pool = np.flatnonzero(~state.in_selection)
        sample = stream.sample_sorted(pool, s)
        sample_sizes.append(int(sample.size))
        queue.clear()
        for i in sample:
            queue.push(int(i), state.touch(int(i)))
        winner, _ = pop_fresh_argmax(queue, state, None)
        piv = float(state.pivots[winner])
        if piv > ZERO_GAIN_PIVOT:
            state.commit(winner)
        else:
            run.decline(step, piv, ZERO_GAIN_PIVOT)
            skipped_steps.append(step)
    run.report.extras.update(sample_size=s, sample_sizes=sample_sizes, skipped_steps=skipped_steps)
    return run.finish(state)


def interlace(run: SolverRun, k: int, pair, deadline: float | None = None) -> dict:
    """Interlace greedy's phases and best prefix, shared by both implementations.

    ``pair(first, steps)`` grows two mutually exclusive runs over ``steps``,
    both opened by the pick ``first``, and returns them as lists of ``(gain,
    item, objective)`` picks.  Phase one (runs A, B) opens with no pick and
    has k steps; phase two (C, D) opens with A's first pick and has k - 1.
    The best of all four runs' prefixes, the empty one winning all-zero ties,
    is committed through :meth:`SolverRun.take`.  Reports ``steps_attempted
    = k`` however the runs end, and returns the picks by run.
    """
    runs = dict(zip("AB", pair(None, run.steps(k, deadline))))
    if runs["A"]:
        runs.update(zip("CD", pair(runs["A"][0], run.steps(k - 1, deadline))))
    # max keeps the first of equal objectives: the empty prefix wins all-zero ties
    prefixes = [(0.0, "A", 0)] + [(obj, label, t) for label, picks in runs.items()
                                  for t, (_, _, obj) in enumerate(picks, 1)]
    _, best_label, best_len = max(prefixes, key=lambda prefix: prefix[0])
    for gain, item, obj in runs[best_label][:best_len]:
        run.take(item, gain, obj)
    run.report.steps_attempted = k
    run.report.extras.update(sequences={label: [i for _, i, _ in picks] for label, picks in runs.items()},
                             best_prefix={"run": best_label, "length": best_len})
    return runs


def _interlaced_pair(run: SolverRun, k: int, first, steps) -> list[list]:
    """:func:`interlace`'s pair builder on two factor states, each with its lazy queue.

    Each run's picks are its state's ``picks``.  The states and queues are
    registered with ``run``, which counts their work.
    """
    states = [run.count(CholeskyState(run.oracle, k)) for _ in range(2)]
    queues = [run.count(LazyMaxQueue.build(state.pivots)) for state in states]
    sides = list(zip(states, queues, queues[::-1]))
    if first is not None:
        for state, _, other in sides:
            state.commit(first[1])
            other.exclude(first[1])
    for _ in steps:
        for state, queue, other in sides:
            top = queue.peek_entry()
            if top is None or top[1] < ZERO_GAIN_PIVOT:
                continue  # even the stale bound rules everything out
            i, _ = pop_fresh_argmax(queue, state, None)
            if i is not None and state.pivots[i] >= ZERO_GAIN_PIVOT:
                state.commit(i)
                other.exclude(i)
    return [state.picks for state in states]


def interlace_greedy_lf(oracle: KernelOracle, cfg: GreedyConfig,
                        deadline: float | None = None) -> RunReport:
    """:func:`interlace` on lazy, incrementally factored runs; consumes no randomness.

    Adds each run's prefix objectives.
    """
    require_size("interlace", oracle.n, cfg.k, 4)
    run = SolverRun("interlace", oracle, cfg.k)
    runs = interlace(run, cfg.k, lambda first, steps: _interlaced_pair(run, cfg.k, first, steps), deadline)
    run.report.extras["prefix_objectives"] = {label: [0.0] + [obj for *_, obj in picks]
                                              for label, picks in runs.items()}
    return run.finish()


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
