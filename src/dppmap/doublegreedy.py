"""Unconstrained inference: randomized double greedy, naive and fast.

Double greedy sweeps the items once in index order, keeping a growing set and
an implicitly shrinking one, and flips a biased coin between "add" and
"remove" weighted by the clamped gains of each move.  The fast version gets
the add-gain from an incremental Cholesky factor of the kernel and - the
trick - the remove-gain from a second incremental factor of the *inverse*
kernel, via the complementary-minor identity relating principal minors of a
matrix and its inverse.  Both versions consume exactly one uniform draw per
item, so twin runs with a shared seed make identical decisions.
"""

from __future__ import annotations

import math

import numpy as np

from . import reference
from .cholesky import CholeskyState
from .errors import SelectionDriftError, SingularKernelError, SingularPivotError
from .kernel import KernelOracle
from .report import RunReport, SolverRun
from .stream import DecisionStream

INVERSE_GATE = 1e-8


def jacobi_gain_check(matrix: np.ndarray, subset, i: int) -> tuple[float, float]:
    """Both sides of the complementary-minor gain identity, by brute force.

    Returns ``(g(S + i) - g(S), f(comp(S) - i) - f(comp(S)))`` where ``f`` is
    ln det over the matrix and ``g`` ln det over its inverse.  A test helper:
    validates the identity off the hot path.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    subset = sorted(subset)
    if i in subset:
        raise ValueError(f"item {i} is already in the subset")
    inv = reference.inverse(matrix)
    [(lhs, _, _)] = reference.gains(inv, subset, reference.log_det(inv, subset), [i])
    comp = [j for j in range(n) if j not in subset]
    comp_minus = [j for j in comp if j != i]
    rhs = reference.log_det(matrix, comp_minus) - reference.log_det(matrix, comp)
    return lhs, rhs


def _decide(add_gain: float, remove_gain: float, draw: float) -> bool:
    """Add with probability a/(a+b) on clamped gains; the 0/0 corner adds."""
    a = max(add_gain, 0.0)
    b = max(remove_gain, 0.0)
    p = a / (a + b) if a + b > 0.0 else 1.0
    return draw < p


def fast_double_greedy(oracle: KernelOracle, stream: DecisionStream,
                       deadline: float | None = None) -> RunReport:
    """Double greedy with incremental factors over the kernel and its inverse.

    The oracle's adjusted kernel (its ``scale``/``shift`` are set where it is
    built) is materialized and inverted up front; the run is gated on
    ``max|K Kinv - I| <= 1e-8``.  Timings are split into product / inverse /
    greedy phases.

    Item ``i`` is caught up on each factor through every column committed
    there before it, so after each commit the receiving factor prefetches
    the new column for all later rows in one vectorized step
    (:meth:`CholeskyState.prefetch`); ``update_row`` then only adopts the
    values, which are bit-identical to its own scalar loop.  Commits arrive
    in index order, so each prefetch reads its dot products from the
    factor's windowed dot cache instead of re-folding every row from
    column 0; the cache sums in the same order, so factors, pivots and the
    report do not change.  The off-diagonal count is ``T*(T-1)/2`` for ``T``
    attempted steps; prefetched columns of rows a deadline leaves unvisited
    are not counted.  The grow factor's picks are the report's commits,
    handed over by :meth:`SolverRun.finish`.  The per-step series
    (``gains`` and ``objective_trace`` over the G grown items, and
    ``extras["ab_gains"]``) are float64 arrays of shapes (G,), (G,) and
    (T, 2); their JSON is the same as that of the equivalent lists.
    """
    n = oracle.n
    run = SolverRun("double-fast", oracle, n, seed=stream.seed)
    report = run.report
    matrix = oracle.materialize()
    product_ms = run.ms()

    inv = reference.inverse(matrix)
    residual = matrix @ inv
    residual.flat[::n + 1] -= 1.0  # K Kinv - I, with no identity matrix built
    gate = float(np.abs(residual, out=residual).sum(axis=1).max())  # induced inf-norm
    if not gate <= INVERSE_GATE:  # a NaN gate (0 * inf in K Kinv) fails too
        raise SingularKernelError(f"kernel numerically singular: |K Kinv - I|_inf = {gate:.3e}")
    setup_ms = run.ms()
    report.timings.update(product_ms=product_ms, inverse_ms=setup_ms - product_ms)

    # Bare constructor, which judges only the diagonal: both come from an already
    # checked oracle, and from_dense_kernel would refuse the inverse, which is not
    # bitwise symmetric.
    grow = CholeskyState(KernelOracle(matrix=matrix), n)
    shrink = CholeskyState(KernelOracle(matrix=np.ascontiguousarray(inv)), n)
    ab_gains: list[tuple[float, float]] = []
    try:
        for step in run.steps(n, deadline):
            i = step - 1
            grow.update_row(i)
            shrink.update_row(i)
            add_gain = grow.marginal_gain(i)
            remove_gain = shrink.marginal_gain(i)
            ab_gains.append((add_gain, remove_gain))
            side = grow if _decide(add_gain, remove_gain, stream.uniform()) else shrink
            side.commit(i)
            side.prefetch(i + 1)
    except SingularPivotError as exc:
        raise SingularKernelError(f"kernel numerically singular: {exc}") from None

    # the shrink-side selection must be exactly the rejected prefix items
    rejected = [i for i in range(report.steps_attempted) if not grow.in_selection[i]]
    if shrink.selection != rejected:
        raise SelectionDriftError("shrink-side selection drifted from the rejected items")

    run.finish(grow, setup_ms=setup_ms)
    report.gains = np.array(report.gains, dtype=np.float64)
    report.objective_trace = np.array(report.objective_trace, dtype=np.float64)
    report.offdiag_count += shrink.offdiag_count
    report.extras["ab_gains"] = np.array(ab_gains, dtype=np.float64).reshape(-1, 2)
    return report


def naive_double_greedy(kernel: KernelOracle | np.ndarray, stream: DecisionStream,
                        deadline: float | None = None) -> RunReport:
    """Double greedy with every gain from brute-force log-determinants.

    Takes an oracle, whose adjusted kernel it materializes (timed as
    ``product_ms``), or that adjusted kernel as a matrix, which it wraps
    with :meth:`KernelOracle.from_dense_kernel` and reads as it is, counting
    no kernel lookups.  The add gain is a :func:`dppmap.reference.gains`
    row; the remove gain subtracts the survivors' ln det, carried from the
    step before, so ``T`` steps take ``2T + 1`` log-determinants.
    """
    if isinstance(kernel, KernelOracle):
        oracle, matrix = kernel, None
    else:
        matrix = np.asarray(kernel, dtype=np.float64)
        oracle = KernelOracle.from_dense_kernel(matrix)
    n = oracle.n
    run = SolverRun("double-naive", oracle, n, seed=stream.seed)
    report = run.report
    if matrix is None:
        matrix = oracle.materialize()
    product_ms = run.ms()
    report.timings["product_ms"] = product_ms
    ab_gains: list[tuple[float, float]] = []
    kept = reference.log_det(matrix, range(n))  # ln det of the survivors going into the step
    for step in run.steps(n, deadline):
        i = step - 1
        [(add_gain, _, added)] = reference.gains(matrix, report.selection, report.final_objective, [i])
        dropped = reference.log_det(matrix, report.selection + list(range(i + 1, n)))
        remove_gain = dropped - kept
        if not (math.isfinite(add_gain) and math.isfinite(remove_gain)):
            raise SingularKernelError("kernel numerically singular under brute-force gains")
        ab_gains.append((add_gain, remove_gain))
        if _decide(add_gain, remove_gain, stream.uniform()):
            run.take(i, add_gain, added)
        else:
            kept = dropped
    report.extras["ab_gains"] = [[a, b] for a, b in ab_gains]
    return run.finish(setup_ms=product_ms)
