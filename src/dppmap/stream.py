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

``normals(m)`` draws ``p = ceil(m / 2)`` pairs from the next ``2p`` words:
pair ``i`` takes u1 from word ``i`` and u2 from word ``p + i``, and yields
``r cos(theta)`` then ``r sin(theta)``.  ``normals`` computes the pairs in
blocks of at most ``NORMAL_BLOCK`` by two cursors, one at the first u1 word
and one ``p`` words on at the first u2 word, and copies each block into its
output in draw order, so a large draw holds its output and one block of
temporaries, not several copies of its output.
``datagen.gen_synthetic`` reshapes that output without a copy, one
contiguous row per item.  Each value sees the same words and the same
elementwise ``log``/``sqrt``/``cos``/``sin`` at any block size, so blocking
changes no bit.

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

# Box-Muller pairs per block.  A block's temporaries stay small and in cache,
# so a large draw never holds extra copies of its output.  Timed as
# gen_synthetic(n=1000, d=2000), one normals(2 * 10**6) draw filled in
# order, with 2**12, 2**13, 2**14 and 2**16 pairs per block (medians of 7,
# three alternating runs each, shared 2-core host): 72-75, 70-72, 67-69 and
# 67-70 ms.  Blocks past 2**13 save at most a few ms for more temporaries
# (2**16 raised peak RSS by 4.5 MB).
NORMAL_BLOCK = 2 ** 13


class DecisionStream:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bits = np.random.PCG64(self.seed)
        self.words_drawn = 0

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

    def _cursor(self, ahead: int) -> np.random.PCG64:
        """A private PCG64 positioned ``ahead`` words past this stream."""
        cursor = np.random.PCG64(0)
        cursor.state = self._bits.state
        cursor.advance(ahead)
        return cursor

    def normals(self, count: int) -> np.ndarray:
        """``count`` i.i.d. standard normals via Box-Muller.

        Each pair consumes two words: u1 is nudged into (0, 1) by the +0.5
        offset so the log never sees zero.  The output is filled in blocks
        of at most ``NORMAL_BLOCK`` pairs, read by two cursors ``pairs``
        words apart (see the module docstring).
        """
        pairs = (count + 1) // 2
        u1_bits, u2_bits = self._cursor(0), self._cursor(pairs)
        self._bits.advance(2 * pairs)
        self.words_drawn += 2 * pairs
        out = np.empty(count)
        for first in range(0, pairs, NORMAL_BLOCK):
            m = min(NORMAL_BLOCK, pairs - first)
            u1 = ((u1_bits.random_raw(m) >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
            u2 = (u2_bits.random_raw(m) >> np.uint64(11)).astype(np.float64) * _INV_2_53
            radius = np.sqrt(-2.0 * np.log(u1))
            angle = 2.0 * math.pi * u2
            # A fresh block copied into place, not a strided write straight into out:
            # that measured about 12 MB more peak RSS on the random-sparse-run benchmark.
            values = np.empty(2 * m)
            values[0::2] = radius * np.cos(angle)
            values[1::2] = radius * np.sin(angle)
            out[2 * first:2 * (first + m)] = values[:count - 2 * first]  # an odd count drops the last sine
        return out
