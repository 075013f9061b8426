"""Cardinality-constrained greedy solvers for log-determinant maximization.

Four implementations of the same greedy rule, from slow-and-obvious to
lazy-and-incremental:

* :func:`naive_greedy`     - recomputes every marginal gain from brute-force
  log-determinants each step (:func:`dppmap.reference.gains`).
* :func:`lazy_greedy`      - same gains, but stale upper bounds in a priority
  queue defer recomputation of unpromising items.
* :func:`fast_greedy`      - incremental Cholesky pivots give every item's
  gain after each selection; one factor column per step.
* :func:`lazy_fast_greedy` - the combination: pivot upper bounds in a queue,
  rows refreshed only when they surface.

All four share one selection rule - argmax of the gain with ties to the
smaller index, stop when the best gain is nonpositive - and return identical
selection sequences whenever no two candidates' gains are within float
rounding of each other, as on Gaussian features.  Exact ties are another
matter: integer kernels, such as those of 0/1 features, produce them.  The
tie-break sees float gains, and the Cholesky pivots (``fast``,
``lazyfast``) and the brute-force log-determinants (``naive``, ``lazy``)
can round two exactly equal gains apart.  On a tie the two families may
then take different members of it, each with exactly the best gain, and
the sequences part from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reference
from .cholesky import CholeskyState
from .errors import NonPositiveKError
from .kernel import KernelOracle
from .pqueue import LazyMaxQueue
from .report import RunReport, SolverRun

ZERO_GAIN_PIVOT = 1.0  # pivot == 1  <=>  marginal gain == 0


@dataclass
class GreedyConfig:
    """The cardinality bound ``k``, which must be at least 1 (else :class:`NonPositiveKError`)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise NonPositiveKError(f"k must be at least 1, got {self.k}")


def pop_fresh_argmax(queue: LazyMaxQueue, state: CholeskyState, stop_threshold: float | None):
    """Pop the (pivot, index)-lexicographic argmax over live queue entries.

    Stale entries that surface are refreshed and re-pushed; a fresh entry on
    top is the true argmax because stale keys only overestimate.  Returns
    ``(index, None)`` on success.  With a ``stop_threshold``, returns
    ``(None, top_key)`` as soon as the top key is at or below it (every fresh
    gain is then at or below the threshold too); on an empty queue returns
    ``(None, -inf)``.
    """
    while True:
        top = queue.peek_entry()
        if top is None:
            return None, -math.inf
        i, key = top
        if stop_threshold is not None and key <= stop_threshold:
            return None, key
        if state.is_fresh(i):
            queue.pop_max()
            return i, None
        queue.pop_max()
        state.update_row(i)
        queue.push(i, state.pivots[i])


def naive_greedy(oracle: KernelOracle, cfg: GreedyConfig, deadline: float | None = None) -> RunReport:
    """Greedy with per-step brute-force gains over the materialized kernel."""
    run = SolverRun("naive", oracle, cfg.k)
    report = run.report
    matrix = oracle.materialize()

    for step in run.steps(cfg.k, deadline):
        rows = reference.gains(matrix, report.selection, report.final_objective,
                               (i for i in range(oracle.n) if i not in report.selection))
        gain, item, objective = min(rows, key=reference.pick_order, default=(-math.inf, -1, -math.inf))
        if gain <= 0.0:  # also no candidate left, or every candidate dependent (-inf)
            run.stop(step, gain, 0.0)
            break
        run.take(item, gain, objective)
    return run.finish()


def lazy_greedy(oracle: KernelOracle, cfg: GreedyConfig, deadline: float | None = None) -> RunReport:
    """Greedy with brute-force gains behind a lazy priority queue."""
    run = SolverRun("lazy", oracle, cfg.k)
    report = run.report
    matrix = oracle.materialize()

    n = oracle.n
    stamps = np.zeros(n, dtype=np.int64)  # selection size each key was computed at
    rows = reference.gains(matrix, [], 0.0, range(n))
    objectives = [objective for _, _, objective in rows]  # ln det behind each item's key
    queue = run.count(LazyMaxQueue.build([gain for gain, _, _ in rows]))
    gain_evals = n
    for step in run.steps(cfg.k, deadline):
        # refresh stale positive keys until the top is fresh or nonpositive
        while (top := queue.peek_entry()) and top[1] > 0.0 and stamps[top[0]] < len(report.selection):
            i = top[0]
            queue.pop_max()
            [(gain, _, objectives[i])] = reference.gains(matrix, report.selection, report.final_objective, [i])
            gain_evals += 1
            stamps[i] = len(report.selection)
            queue.push(i, gain)
        winner, key = top or (-1, -math.inf)
        if key <= 0.0:
            run.stop(step, key, 0.0)
            break
        queue.pop_max()
        run.take(winner, key, objectives[winner])
    report.extras["gain_evals"] = gain_evals
    return run.finish()


def fast_greedy(oracle: KernelOracle, cfg: GreedyConfig, deadline: float | None = None) -> RunReport:
    """Greedy via one incremental factor column per step.

    After each selection every remaining row is brought up to date, so the
    next argmax is a plain scan; the update sweep is skipped after the final
    selection.  The off-diagonal count is therefore exactly
    ``(T-1) * (n - T/2)`` for a run of ``T`` attempted steps.
    """
    run = SolverRun("fast", oracle, cfg.k)
    state = run.count(CholeskyState(oracle, cfg.k))
    n = oracle.n
    for step in run.steps(cfg.k, deadline):
        masked = np.where(state.in_selection, -math.inf, state.pivots)
        best = int(np.argmax(masked))
        piv = float(masked[best])
        if piv <= ZERO_GAIN_PIVOT:  # also nothing left (-inf) or a dependent item (0)
            run.stop(step, piv, ZERO_GAIN_PIVOT)
            break
        state.commit(best)
        if step == cfg.k:
            break
        for i in range(n):
            if not state.in_selection[i]:
                state.update_row(i)
    return run.finish(state)


def lazy_fast_greedy(oracle: KernelOracle, cfg: GreedyConfig, deadline: float | None = None) -> RunReport:
    """Greedy via incremental factor rows refreshed lazily from a queue."""
    run = SolverRun("lazyfast", oracle, cfg.k)
    state = run.count(CholeskyState(oracle, cfg.k))
    queue = run.count(LazyMaxQueue.build(state.pivots))
    for step in run.steps(cfg.k, deadline):
        best, stop_key = pop_fresh_argmax(queue, state, ZERO_GAIN_PIVOT)
        if best is None:
            run.stop(step, stop_key, ZERO_GAIN_PIVOT)
            break
        state.commit(best)
    return run.finish(state)
