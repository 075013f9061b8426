"""Incremental, row-wise-independent Cholesky factor maintenance.

The factor is grown one selection at a time.  Row ``i`` holds the entries of
the factor restricted to the committed columns it has caught up with; its
pivot value ``p_i`` satisfies ``2*ln(p_i)`` = marginal gain of adding item
``i`` to the current selection.  Because refreshing a row only reads that row
and already-committed rows, rows can be refreshed in any order (and lazily)
without changing any computed value bit-for-bit.

Rows live in one contiguous (n, capacity) block and are filled in place,
which keeps per-row refreshes cache-local.

Two per-row counters track a row's progress.  ``stamps[i]`` is the number of
committed columns row ``i`` has been caught up through *for use*: its gain is
readable once the stamp equals the selection length, and only
:meth:`CholeskyState.update_row` advances it, counting the columns it adopts
in ``offdiag_count``.  The private ``_ready[i]`` (never below the stamp) is the
number of columns whose factor entries, and the pivot, are already computed.
:meth:`CholeskyState.prefetch` advances ``_ready`` for a block of rows with
one vectorized sweep per column; a later ``update_row`` then only adopts those
values, and computes the rest with its scalar loop.  Both paths use the same
arithmetic in the same order, so a row's values do not depend on which one
computed them.  Between a prefetch and the adopting ``update_row`` a row's
pivot is ahead of its stamp; only fresh rows' gains are ever read.

The scalar loop folds a dot product of fewer than ``SHORT_FOLD`` terms in
Python floats: it reads the row's computed columns once with ``tolist``, and
folds ``acc = 0.0; acc += a * b`` over a committed row's frozen entries
(converted on first use and kept, since committed rows never change).
CPython rounds the multiply and the add separately, as numpy does, so this is
:func:`~dppmap.kernel.seq_dot`'s ascending fold bit for bit.  A fold that
starts from ``+0.0`` never returns ``-0.0`` under round to nearest (a sum is
``-0.0`` only when both terms are), so it needs no ``+ 0.0`` of its own.
Longer dot products take :func:`~dppmap.kernel.seq_dot` over the numpy row:
a Python fold costs about 55 ns per term and ``seq_dot`` about 1.5 us
whatever the length, so they cross near 27 terms.  Short folds are the lazy
catch-ups of a small selection (``random`` on sparse input); long ones are
eager one-column refreshes late in a long run (``fast`` at k = 50), which a
Python fold alone made about 10% slower.

A prefetch usually follows the schedule fast double greedy produces: the
newest commit is item ``lo - 1``, and every row ``lo..n-1`` is uncommitted and
lacks only that commit's column.  The state tells that schedule apart in
O(1) by the record ``(_dots_lo, _dots_cols)`` of the dot cache below: the
fold that made it left rows ``_dots_lo..n-1`` uncommitted and holding
exactly ``_dots_cols`` columns (as a fresh state's ``(0, 0)`` does), so with
item ``lo - 1`` the one commit since and ``_dots_lo < lo``, rows ``lo..n-1``
are in order.  :meth:`CholeskyState.update_row`'s scalar loop on a row at or
after ``_dots_lo``, and every generic prefetch, void the record by setting
``_dots_lo`` to ``n``.  Where the record does not vouch for the rows, two
O(n) scans answer; on fast double greedy's schedule they never run.

That schedule takes a cheaper path through a per-state dot cache over a
window of ``WINDOW`` candidate items ``a..a+WINDOW-1``: ``_dots[c, r - a]``
holds, for every row ``r`` after the newest commit, the left fold from
``+0.0`` of ``F[r, s] * F[a + c, s]`` over the first ``_dots_cols`` columns
in ascending order, which is the sum :func:`seq_dot` returns, bit for bit.
A commit of item ``j`` reads its column's dots from the cache, then folds
the new column into the whole cache rows of the candidates after ``j`` with
one rank-1 update, ``dots[c:] += outer(full[c:W], full)``, where ``full`` is
the new column over rows ``a..n-1`` with ``+0.0`` on the rows ``a..j`` the
sweep has passed.  Entries of those rows go stale, and no later prefetch
reads them; folding them too keeps the target one contiguous block, which
the in-place call below needs.  The cache is rebuilt from the factor, one
rank-1 update per committed column in ascending order, when its record does
not vouch for the rows or the committed item leaves the window.  Every other
schedule takes the generic column sweep.

Each rank-1 update is one BLAS ``dgemm`` call, :func:`add_outer`, with
k = 1 and alpha = beta = 1, in place on the cache's column-major transpose.
With k = 1 each product is rounded on its own, and with alpha = beta = 1 it
is added to the cache entry with one more rounding: the two roundings of
``dots += x[:, None] * y`` (BLAS ``dger`` fuses them into one FMA).  A
product may come out ``+0.0`` where the multiply gives ``-0.0``; a left fold
from ``+0.0`` is never ``-0.0`` (see above), and adding a zero of either
sign to any other value leaves it unchanged.  An empty update (the window's
last candidate committed) is skipped, as the wrapper refuses zero-size
arrays, and a target the wrapper would copy, losing the update, raises.
"""

from __future__ import annotations

import math

import numpy as np

from . import reference
from .errors import SingularPivotError, StaleRowError
from .kernel import KernelOracle, seq_dot

PIVOT_FLOOR = 1e-12
WINDOW = 64  # candidate items the in-order dot cache covers
SHORT_FOLD = 32  # the scalar loop folds dot products of fewer terms in Python floats


def add_outer(target: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """``target += np.multiply.outer(x, y)`` bit for bit, in place on a column-major float64 ``target``."""
    dgemm = reference._blas().dgemm
    if x.size and y.size and dgemm(1.0, x[:, None], y[None, :], 1.0, target, overwrite_c=1) is not target:
        raise ValueError("add_outer needs a column-major float64 target to update in place")


class CholeskyState:
    """Partially computed Cholesky factor over a kernel oracle.

    Parameters
    ----------
    oracle:
        Kernel entry source; never mutated.
    capacity:
        Maximum number of selections this state must support.
    lazy_diag:
        Defer the ``sqrt(diag)`` pivot initialization of each row until the
        row is first touched (used by the sampling-based variant, which never
        touches most rows).
    """

    def __init__(self, oracle: KernelOracle, capacity: int, lazy_diag: bool = False):
        n = oracle.n
        self.oracle = oracle
        self.capacity = max(int(capacity), 1)
        self.factor = np.zeros((n, self.capacity))
        self.pivots = np.empty(n)
        self.stamps = np.zeros(n, dtype=np.int64)
        self._ready = np.zeros(n, dtype=np.int64)
        self.selection: list[int] = []
        self.selected_pivots: list[float] = []
        self._prefixes: list[list[float] | None] = []  # per column t < SHORT_FOLD: row j_t's frozen entries as floats
        self.picks: list[tuple[float, int, float]] = []  # one (gain, item, objective) per commit, see commit()
        self.in_selection = np.zeros(n, dtype=bool)
        self.offdiag_count = 0
        self._diag_ready = np.zeros(n, dtype=bool)
        self._lazy_diag = lazy_diag
        self._dots = np.zeros((0, 0))  # the in-order dot cache, see the module docstring
        self._dots_at = 0    # first item of its window
        self._dots_cols = 0  # committed columns folded in
        self._dots_lo = 0    # first row and candidate the last fold reached; n once voided
        if not lazy_diag:
            entry = oracle.entry
            self.pivots[:] = np.sqrt([entry(i, i) for i in range(n)])
            self._diag_ready[:] = True

    @property
    def n(self) -> int:
        return self.oracle.n

    def _init_pivot(self, i: int) -> None:
        self.pivots[i] = math.sqrt(self.oracle.entry(i, i))
        self._diag_ready[i] = True

    def touch(self, i: int) -> float:
        """Ensure row i's pivot is initialized; return the current pivot."""
        if not self._diag_ready[i]:
            self._init_pivot(i)
        return float(self.pivots[i])

    def is_fresh(self, i: int) -> bool:
        return self.stamps[i] == len(self.selection)

    def update_row(self, i: int) -> float:
        """Fill row i up to the current selection and return the new pivot.

        For each missing column t the new factor entry is
        ``(K[i, j_t] - <row_i[:t], row_jt[:t]>) / p_jt`` with ``p_jt`` the
        pivot frozen when ``j_t`` was committed, after which the row's own
        pivot shrinks by the Pythagorean update.  Columns a :meth:`prefetch`
        already computed are adopted as they are, with no conversion to
        Python floats; the rest are computed by the scalar loop of the module
        docstring, one :meth:`KernelOracle.entry` per column.  Each adopted
        column bumps the off-diagonal counter exactly once.  Every
        denominator is a pivot :meth:`commit` accepted, so none is judged
        here.
        """
        if self.in_selection[i]:
            raise ValueError(f"row {i} is already committed")
        self.touch(i)
        start = int(self.stamps[i])
        m = len(self.selection)
        if start == m:
            return float(self.pivots[i])
        piv = float(self.pivots[i])
        ready = int(self._ready[i])
        if ready < m:
            if i >= self._dots_lo:
                self._dots_lo = self.n  # the loop below moves a row the record vouches for
            row = self.factor[i]
            vals = row[:ready].tolist() if ready < SHORT_FOLD else None
            entry, prefixes, frozen = self.oracle.entry, self._prefixes, self.selected_pivots
            for t in range(ready, m):
                jt = self.selection[t]
                if t < SHORT_FOLD:
                    crow = prefixes[t]
                    if crow is None:
                        crow = prefixes[t] = self.factor[jt, :t].tolist()
                    acc = 0.0
                    for a, b in zip(vals, crow):
                        acc += a * b
                else:
                    acc = seq_dot(row[:t], self.factor[jt, :t])
                val = (entry(i, jt) - acc) / frozen[t]
                row[t] = val
                if t < SHORT_FOLD:
                    vals.append(val)
                piv = math.sqrt(max(piv * piv - val * val, 0.0))
        self.pivots[i] = piv
        self.offdiag_count += m - start
        self.stamps[i] = m
        self._ready[i] = m
        return piv

    def prefetch(self, lo: int) -> None:
        """Compute the missing columns of the uncommitted rows ``lo..n-1``.

        One vectorized sweep per column: the kernel values come from
        :meth:`KernelOracle.column`, each row's dot product with the committed
        row ``j_t`` is the same ascending single-accumulator sum
        :func:`seq_dot` takes, and the entry and pivot updates are the scalar
        loop's operations elementwise, so every value matches
        :meth:`update_row` bit for bit.  The in-order schedule reads its dots
        from the cache instead (:meth:`_prefetch_in_order`).  Stamps and
        ``offdiag_count`` do not move: the columns count when ``update_row``
        adopts them, and a column that is never adopted (a run cut short) is
        never counted.
        """
        m = len(self.selection)
        n = self.n
        if self._lazy_diag:
            for i in np.flatnonzero(~self._diag_ready[lo:]) + lo:
                self._init_pivot(int(i))
        if self._in_order(lo):
            self._prefetch_in_order(lo)
            return
        live = np.flatnonzero(~self.in_selection[lo:]) + lo
        ready = self._ready[live]
        block = slice(lo, n) if live.size == n - lo else live  # a range when no row lo..n-1 is committed
        for t in range(int(ready.min()) if live.size else m, m):
            lacking = ready == t  # rows lacking column t hold exactly t columns
            rows = block if lacking.all() else live[lacking]
            jt = self.selection[t]
            dots = np.zeros(int(lacking.sum()))
            if t:
                dots = np.add.accumulate(self.factor[rows, :t] * self.factor[jt, :t], axis=1)[:, -1] + 0.0
            self._write_column(t, rows, dots)
            ready[lacking] = t + 1
        self._ready[live] = m
        self._dots_lo = n  # the sweep may have written the column an in-order prefetch would

    def _in_order(self, lo: int) -> bool:
        """Is item ``lo - 1`` the newest commit, with rows ``lo..n-1`` uncommitted and one column behind?

        Answered in O(1) when the dot cache's record vouches for the rows,
        and by scanning them otherwise (see the module docstring).
        """
        m = len(self.selection)
        if not (lo < self.n and m > 0 and self.selection[-1] == lo - 1):
            return False
        return ((self._dots_cols == m - 1 and self._dots_lo < lo)  # the record vouches for the rows
                or (not self.in_selection[lo:].any() and bool((self._ready[lo:] == m - 1).all())))

    def _prefetch_in_order(self, lo: int) -> None:
        """Write the newest column of rows ``lo..n-1`` from the dot cache, then fold it in."""
        t = len(self.selection) - 1
        j = lo - 1
        if not (self._dots_cols == t and self._dots_lo <= j < self._dots_at + len(self._dots)):
            self._rebuild_dots(j, t)
        a, dots = self._dots_at, self._dots
        c = lo - a  # the candidates after j, and the rows from lo on
        full = np.zeros(self.n - a)  # +0.0 on the dead rows a..j
        self._write_column(t, slice(lo, self.n), dots[j - a, c:], out=full[c:])
        self._ready[lo:] = t + 1
        add_outer(dots[c:].T, full, full[c:len(dots)])
        self._dots_cols, self._dots_lo = t + 1, lo

    def _rebuild_dots(self, a: int, t: int) -> None:
        """Fold the first ``t`` columns afresh for the window starting at item ``a``."""
        dots = np.zeros((min(WINDOW, self.n - a), self.n - a))
        for col in self.factor[a:, :t].T.copy():  # one contiguous row per committed column
            add_outer(dots.T, col, col[:len(dots)])
        self._dots, self._dots_at, self._dots_cols, self._dots_lo = dots, a, t, a

    def _write_column(self, t: int, rows, dots: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Set column ``t`` of ``rows`` (an index array or a range), shrink their pivots, return the column.

        The column is computed into ``out`` when one is given, and a range's
        pivots shrink in place.
        """
        vals = np.subtract(self.oracle.column(self.selection[t], rows), dots, out=out)
        vals /= self.selected_pivots[t]
        self.factor[rows, t] = vals
        piv = self.pivots[rows]  # a view of a range, a copy of an index array
        piv *= piv
        piv -= vals * vals
        np.sqrt(np.maximum(piv, 0.0, out=piv), out=piv)
        if not isinstance(rows, slice):
            self.pivots[rows] = piv
        return vals

    def marginal_gain(self, i: int) -> float:
        """2*ln(pivot) of a fresh row; -inf encodes a linearly dependent item."""
        if not self.is_fresh(i):
            raise StaleRowError(f"row {i} is stale (stamp {self.stamps[i]} < {len(self.selection)})")
        p = float(self.pivots[i])
        if p == 0.0:
            return -math.inf
        return 2.0 * math.log(p)

    def commit(self, i: int) -> int:
        """Append a fresh row to the selection, freezing its pivot ``p``.

        Records the pick ``(2 ln p, i, ln det reached)`` in ``picks``, in the
        row shape of :func:`~dppmap.reference.gains`, and returns the
        selection position of ``i``.
        """
        if not self.is_fresh(i):
            raise StaleRowError(f"cannot commit stale row {i}")
        p = float(self.pivots[i])
        if p <= PIVOT_FLOOR:
            raise SingularPivotError(f"pivot {p} at or below floor for row {i}")
        t = len(self.selection)
        if t >= self.capacity:
            raise ValueError("selection capacity exhausted")
        self.selection.append(i)
        self.selected_pivots.append(p)
        self._prefixes.append(None)
        gain = 2.0 * math.log(p)
        self.picks.append((gain, i, self.objective() + gain))
        self.in_selection[i] = True
        return t

    def objective(self) -> float:
        """ln det of the selected items' kernel: the objective of the last pick, 0.0 before any."""
        return self.picks[-1][2] if self.picks else 0.0
