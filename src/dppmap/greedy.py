"""Cardinality-constrained greedy solvers for log-determinant maximization.

Four implementations of the same greedy rule, from slow-and-obvious to
lazy-and-incremental:

* :func:`naive_greedy`     - recomputes every marginal gain from brute-force
  log-determinants each step.
* :func:`lazy_greedy`      - same gains, but stale upper bounds in a priority
  queue defer recomputation of unpromising items.
* :func:`fast_greedy`      - incremental Cholesky pivots give every item's
  gain after each selection; one factor column per step.
* :func:`lazy_fast_greedy` - the combination: pivot upper bounds in a queue,
  rows refreshed only when they surface.

All four share one selection rule - argmax of the gain with ties to the
smaller index, stop when the best gain is nonpositive - and return identical
selection sequences (exactly, assuming gains are never within float noise of
a tie; the shared tie-break keeps even exact-tie instances aligned).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reference
from .cholesky import CholeskyState
from .kernel import KernelOracle
from .pqueue import LazyMaxQueue
from .report import RunReport, SolverRun

ZERO_GAIN_PIVOT = 1.0  # pivot == 1  <=>  marginal gain == 0


@dataclass
class GreedyConfig:
    k: int


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


def gain_argmax(matrix, selected, base, candidates):
    """(index, gain) maximizing the brute-force marginal gain, ties to the smaller index.

    ``(-1, -inf)`` when no candidate has a gain above ``-inf``.
    """
    best_i, best_gain = -1, -math.inf
    for i in candidates:
        gain = reference.log_det(matrix, list(selected) + [i]) - base
        if gain > best_gain or (gain == best_gain and i < best_i):
            best_i, best_gain = int(i), gain
    return best_i, best_gain


def naive_greedy(oracle: KernelOracle, cfg: GreedyConfig, deadline: float | None = None) -> RunReport:
    """Greedy with per-step brute-force gains over the materialized kernel."""
    run = SolverRun("naive", oracle, cfg.k)
    report = run.report
    matrix = oracle.materialize()
    setup_ms = run.ms()

    selected: list[int] = []
    base = 0.0
    for step in run.steps(cfg.k, deadline):
        best_i, best_gain = gain_argmax(matrix, selected, base,
                                        (i for i in range(oracle.n) if i not in selected))
        if best_gain <= 0.0:  # also no candidate left, or every candidate dependent (-inf)
            if best_gain == 0.0:
                report.boundary_gain_steps.append(step)
            report.terminated_early = True
            break
        selected.append(best_i)
        base = reference.log_det(matrix, selected)
        report.gains.append(best_gain)
        report.objective_trace.append(base)
    report.selection = selected
    report.final_objective = base
    return run.finish(setup_ms=setup_ms)


def lazy_greedy(oracle: KernelOracle, cfg: GreedyConfig, deadline: float | None = None) -> RunReport:
    """Greedy with brute-force gains behind a lazy priority queue."""
    run = SolverRun("lazy", oracle, cfg.k)
    report = run.report
    matrix = oracle.materialize()
    setup_ms = run.ms()

    n = oracle.n
    stamps = np.zeros(n, dtype=np.int64)
    queue = LazyMaxQueue.build([reference.log_det(matrix, [i]) for i in range(n)])
    gain_evals = n
    selected: list[int] = []
    base = 0.0
    for step in run.steps(cfg.k, deadline):
        winner = None
        winner_gain = -math.inf
        while True:
            top = queue.peek_entry()
            if top is None:
                break
            i, key = top
            if key <= 0.0:
                winner_gain = key
                break
            if stamps[i] == len(selected):
                queue.pop_max()
                winner, winner_gain = i, key
                break
            queue.pop_max()
            gain = reference.log_det(matrix, selected + [i]) - base
            gain_evals += 1
            stamps[i] = len(selected)
            queue.push(i, gain)
        if winner is None:
            if winner_gain == 0.0:
                report.boundary_gain_steps.append(step)
            report.terminated_early = True
            break
        selected.append(winner)
        base = reference.log_det(matrix, selected)
        report.gains.append(winner_gain)
        report.objective_trace.append(base)
    report.selection = selected
    report.final_objective = base
    report.extras["gain_evals"] = gain_evals
    return run.finish(pq_ops=queue.op_count, setup_ms=setup_ms)


def fast_greedy(oracle: KernelOracle, cfg: GreedyConfig, deadline: float | None = None) -> RunReport:
    """Greedy via one incremental factor column per step.

    After each selection every remaining row is brought up to date, so the
    next argmax is a plain scan; the update sweep is skipped after the final
    selection.  The off-diagonal count is therefore exactly
    ``(T-1) * (n - T/2)`` for a run of ``T`` attempted steps.
    """
    run = SolverRun("fast", oracle, cfg.k)
    report = run.report
    state = CholeskyState(oracle, cfg.k)
    n = oracle.n
    for step in run.steps(cfg.k, deadline):
        masked = np.where(state.in_selection, -math.inf, state.pivots)
        best = int(np.argmax(masked))
        piv = float(masked[best])
        if piv <= ZERO_GAIN_PIVOT:  # also nothing left (-inf) or a dependent item (0)
            if piv == ZERO_GAIN_PIVOT:
                report.boundary_gain_steps.append(step)
            report.terminated_early = True
            break
        report.gains.append(state.marginal_gain(best))
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
    report = run.report
    state = CholeskyState(oracle, cfg.k)
    queue = LazyMaxQueue.build(state.pivots)
    for step in run.steps(cfg.k, deadline):
        best, stop_key = pop_fresh_argmax(queue, state, ZERO_GAIN_PIVOT)
        if best is None:
            if stop_key == ZERO_GAIN_PIVOT:
                report.boundary_gain_steps.append(step)
            report.terminated_early = True
            break
        report.gains.append(state.marginal_gain(best))
        state.commit(best)
    return run.finish(state, pq_ops=queue.op_count)
