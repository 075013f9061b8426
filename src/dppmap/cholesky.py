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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularPivotError, StaleRowError
from .kernel import KernelOracle, seq_dot

PIVOT_FLOOR = 1e-12


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
        self.objective_trace: list[float] = []
        self.in_selection = np.zeros(n, dtype=bool)
        self.offdiag_count = 0
        self._diag_ready = np.zeros(n, dtype=bool)
        if not lazy_diag:
            for i in range(n):
                self._init_pivot(i)

    @property
    def n(self) -> int:
        return self.oracle.n

    def _init_pivot(self, i: int) -> None:
        diag = self.oracle.entry(i, i)
        if diag < 0:
            raise ValueError(f"negative kernel diagonal at {i}: {diag}")
        self.pivots[i] = math.sqrt(diag)
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
        already computed are adopted as they are.  Each adopted column bumps
        the off-diagonal counter exactly once.
        """
        if self.in_selection[i]:
            raise ValueError(f"row {i} is already committed")
        self.touch(i)
        start = int(self.stamps[i])
        m = len(self.selection)
        if start == m:
            return float(self.pivots[i])
        row = self.factor[i]
        piv = float(self.pivots[i])
        for t in range(int(self._ready[i]), m):
            jt = self.selection[t]
            denom = self.selected_pivots[t]
            if denom < PIVOT_FLOOR:
                raise SingularPivotError(f"numerically singular pivot {denom} at column {t}")
            val = (self.oracle.entry(i, jt) - seq_dot(row[:t], self.factor[jt, :t])) / denom
            row[t] = val
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
        :meth:`update_row` bit for bit.  Stamps and ``offdiag_count`` do not
        move: the columns count when ``update_row`` adopts them, and a column
        that is never adopted (a run cut short) is never counted.
        """
        m = len(self.selection)
        n = self.n
        for i in np.flatnonzero(~self._diag_ready[lo:]) + lo:
            self._init_pivot(int(i))
        live = np.flatnonzero(~self.in_selection[lo:]) + lo
        ready = self._ready[live]
        for t in range(int(ready.min()) if live.size else m, m):
            lacking = ready == t  # rows lacking column t hold exactly t columns
            rows = live[lacking]
            block = slice(lo, n) if rows.size == n - lo else rows  # a view when rows are lo..n-1
            denom = self.selected_pivots[t]
            if denom < PIVOT_FLOOR:
                raise SingularPivotError(f"numerically singular pivot {denom} at column {t}")
            jt = self.selection[t]
            dots = np.zeros(rows.size)
            if t:
                dots = np.add.accumulate(self.factor[block, :t] * self.factor[jt, :t], axis=1)[:, -1] + 0.0
            vals = (self.oracle.column(jt, rows) - dots) / denom
            self.factor[block, t] = vals
            piv = self.pivots[block]
            self.pivots[block] = np.sqrt(np.maximum(piv * piv - vals * vals, 0.0))
            ready[lacking] = t + 1
        self._ready[live] = m

    def marginal_gain(self, i: int) -> float:
        """2*ln(pivot) of a fresh row; -inf encodes a linearly dependent item."""
        if not self.is_fresh(i):
            raise StaleRowError(f"row {i} is stale (stamp {self.stamps[i]} < {len(self.selection)})")
        p = float(self.pivots[i])
        if p == 0.0:
            return -math.inf
        return 2.0 * math.log(p)

    def commit(self, i: int) -> int:
        """Append a fresh row to the selection, freezing its pivot.

        Returns the selection position of ``i``.
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
        gain = 2.0 * math.log(p)
        prev = self.objective_trace[-1] if self.objective_trace else 0.0
        self.objective_trace.append(prev + gain)
        self.in_selection[i] = True
        return t

    def objective(self) -> float:
        return self.objective_trace[-1] if self.objective_trace else 0.0
