"""Seeded randomness with an explicit draw protocol.

All randomness in the package flows through :class:`DecisionStream`, backed
by the raw 64-bit word stream of PCG64.  The derived draws are fixed here,
once, so that an accelerated algorithm and its naive counterpart consume
byte-identical decision sequences:

* ``uniform()``      - one word, mapped to [0, 1) as ``(w >> 11) * 2**-53``.
* ``uniform_int(n)`` - rejection sampling on raw words (no modulo bias).
* ``rank(k)``        - ``uniform_int(k) + 1``, the 1-based rank draw.
* ``sample_sorted(pool, s)`` - partial Fisher-Yates over an ascending pool;
  consumes no words when the whole pool is returned.
* ``normals(m)``     - Box-Muller pairs from two words each, vectorized.

Word consumption per operation is part of the contract.  Integer draws are
exactly reproducible everywhere; the Box-Muller floats additionally depend on
the platform's libm rounding of log/cos/sin, which is stable in practice but
not formally specified.
"""

from __future__ import annotations

import math

import numpy as np

_INV_2_53 = 2.0 ** -53
_WORD_SPAN = 2 ** 64


class DecisionStream:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bits = np.random.PCG64(self.seed)
        self.words_drawn = 0

    def _words(self, m: int) -> np.ndarray:
        self.words_drawn += m
        return np.asarray(self._bits.random_raw(m), dtype=np.uint64).reshape(m)

    def _word(self) -> int:
        self.words_drawn += 1
        return int(self._bits.random_raw())

    def uniform(self) -> float:
        return (self._word() >> 11) * _INV_2_53

    def uniform_int(self, n: int) -> int:
        """Uniform draw from {0, ..., n-1} by rejection on raw words."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_WORD_SPAN // n) * n
        while True:
            w = self._word()
            if w < limit:
                return w % n

    def rank(self, k: int) -> int:
        """1-based rank uniform on {1, ..., k}."""
        return self.uniform_int(k) + 1

    def sample_sorted(self, pool: np.ndarray, s: int) -> np.ndarray:
        """Sample ``s`` distinct elements from an ascending pool.

        Runs a partial Fisher-Yates shuffle over a copy of the pool; returns
        the pool itself (copied) without consuming randomness when
        ``s >= len(pool)``.
        """
        pool = np.asarray(pool)
        m = pool.size
        if s >= m:
            return pool.copy()
        work = pool.copy()
        for t in range(s):
            j = t + self.uniform_int(m - t)
            work[t], work[j] = work[j], work[t]
        return work[:s]

    def normals(self, count: int) -> np.ndarray:
        """``count`` i.i.d. standard normals via Box-Muller.

        Each pair consumes two words: u1 is nudged into (0, 1) by the +0.5
        offset so the log never sees zero.
        """
        pairs = (count + 1) // 2
        if pairs == 0:
            return np.empty(0)
        w = self._words(2 * pairs)
        u1 = ((w[:pairs] >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
        u2 = (w[pairs:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]
