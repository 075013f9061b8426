"""Max-priority queue over stale gain upper bounds.

Lazy invalidation: re-pushing an index bumps its version and the heap simply
skips dead entries on the way out, so there is no decrease-key.  Stale keys
are harmless here because every client algorithm only ever lowers keys.
Ties break toward the smaller index so all greedy implementations share one
total order.
"""

from __future__ import annotations

import heapq


class LazyMaxQueue:
    def __init__(self, n: int):
        self._heap: list[tuple[float, int, int]] = []  # (-key, index, version)
        self._version = [0] * n
        self._excluded = [False] * n
        self.op_count = 0

    @classmethod
    def build(cls, keys) -> "LazyMaxQueue":
        """Heapify all keys at once, O(n)."""
        keys = list(keys)
        q = cls(len(keys))
        q._heap = [(-float(k), i, 0) for i, k in enumerate(keys)]
        heapq.heapify(q._heap)
        q.op_count += len(keys)
        return q

    def push(self, index: int, key: float) -> None:
        self._version[index] += 1
        heapq.heappush(self._heap, (-float(key), index, self._version[index]))
        self.op_count += 1

    def clear(self) -> None:
        """Drop every entry, counting no operation; exclusions stay."""
        self._heap.clear()

    def exclude(self, index: int) -> None:
        """Mark an index dead for this queue (picked up by a sibling, or committed)."""
        self._excluded[index] = True

    def _clean(self) -> None:
        heap = self._heap
        while heap:
            neg_key, index, version = heap[0]
            if version == self._version[index] and not self._excluded[index]:
                return
            heapq.heappop(heap)

    def peek_entry(self) -> tuple[int, float] | None:
        """(index, key) of the live maximum, or None when empty."""
        self._clean()
        if not self._heap:
            return None
        neg_key, index, _ = self._heap[0]
        return index, -neg_key

    def pop_max(self) -> tuple[int, float]:
        self._clean()
        if not self._heap:
            raise IndexError("pop from queue with no live entries")
        neg_key, index, _ = heapq.heappop(self._heap)
        self.op_count += 1
        return index, -neg_key
