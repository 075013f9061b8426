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
blocks of at most ``NORMAL_BLOCK``, in place in one block of buffers, and
copies each block into its place in the output, so a large draw holds its
output and one block of buffers per worker, not several copies of its
output.  ``datagen.gen_synthetic`` reshapes that output without a copy, one
contiguous row per item.

The blocks are independent and numpy releases the GIL inside ``log``,
``cos`` and ``sin``, so a draw of more than one block is split into
contiguous runs of whole blocks, one per available CPU at most: the calling
thread fills the first run and a helper thread each other one, all joined
before ``normals`` returns.  Each run reads its own two cursors, one at its
first u1 word and one ``p`` words on, and writes a disjoint slice of the
output.  Each value sees the same words and the same elementwise
``log``/``sqrt``/``cos``/``sin`` at any block size and worker count, so
neither blocking nor threads change a bit or the words a draw consumes.

Word consumption per operation is part of the contract.  Integer draws are
exactly reproducible everywhere; the Box-Muller floats additionally depend on
the platform's libm rounding of log/cos/sin, which is stable in practice but
not formally specified.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

_INV_2_53 = 2.0 ** -53
_WORD_SPAN = 2 ** 64

# Box-Muller pairs per block.  A block's buffers stay small and in cache, so
# a large draw never holds extra copies of its output.  Timed as
# gen_synthetic(n=1000, d=2000), one normals(2 * 10**6) draw filled by two
# workers, with 2**12, 2**13, 2**14 and 2**16 pairs per block (medians of 7,
# three alternating runs each, shared 2-core host): 37-49, 37-45, 41-43 and
# 41-44 ms, at 50.4, 50.7, 51.3 and 54.4 MB max RSS.  No block size past
# 2**13 measured faster.
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
        words apart, by up to one worker per available CPU (see the module
        docstring).  Cursors and buffers are made here, in the calling
        thread; helpers call no ``DecisionStream`` method, since a tracer
        that wraps this one keeps a span stack that is not thread-safe.
        """
        pairs = (count + 1) // 2
        blocks = -(-pairs // NORMAL_BLOCK)
        workers = max(1, min(_available_cpus(), blocks))
        bounds = [min(pairs, j * blocks // workers * NORMAL_BLOCK) for j in range(workers + 1)]
        block = min(NORMAL_BLOCK, pairs)
        ranges = [(np.random.Generator(self._cursor(lo)), np.random.Generator(self._cursor(pairs + lo)),
                   lo, hi, np.empty(block), np.empty(block), np.empty(2 * block))
                  for lo, hi in zip(bounds, bounds[1:])]
        self._bits.advance(2 * pairs)
        self.words_drawn += 2 * pairs
        out = np.empty(count)
        faults = []

        def helper(job):
            try:
                _fill_range(out, job)
            except BaseException as fault:
                faults.append(fault)

        started = []
        try:
            for job in ranges[1:]:
                thread = threading.Thread(target=helper, args=(job,))
                thread.start()
                started.append(thread)
            _fill_range(out, ranges[0])
        finally:
            for thread in started:
                thread.join()
        if faults:
            raise faults[0]
        return out


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_range(out: np.ndarray, job) -> None:
    """Box-Muller values of pairs ``lo:hi`` into their places in ``out``.

    ``job`` is ``(u1_draw, u2_draw, lo, hi, u1, u2, values)``: generators on
    the cursors at pair ``lo``'s u1 and u2 words, and one block's buffers.
    Everything runs in place in those buffers; a block is copied into
    ``out`` whole, in draw order.
    """
    u1_draw, u2_draw, lo, hi, u1, u2, values = job
    for first in range(lo, hi, NORMAL_BLOCK):
        m = min(NORMAL_BLOCK, hi - first)
        radius, angle, pair_values = u1[:m], u2[:m], values[:2 * m]
        # random() is (w >> 11) * 2**-53; adding 2**-54 rounds as ((w >> 11) + 0.5) * 2**-53.
        u1_draw.random(out=radius)
        radius += 0.5 * _INV_2_53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        u2_draw.random(out=angle)
        angle *= 2.0 * math.pi
        cosines, sines = pair_values[0::2], pair_values[1::2]
        np.cos(angle, out=cosines)
        cosines *= radius
        np.sin(angle, out=sines)
        sines *= radius
        # A fresh block copied into place, not a strided write straight into out:
        # that measured about 12 MB more peak RSS on the random-sparse-run benchmark.
        out[2 * first:2 * (first + m)] = pair_values[:len(out) - 2 * first]  # an odd count drops the last sine
