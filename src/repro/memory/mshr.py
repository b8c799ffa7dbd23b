"""Miss-status holding registers.

MSHRs bound the number of outstanding misses a cache can sustain, which
caps memory-level parallelism; the bandwidth micro-benchmarks
(ML2_BW_*) are sensitive to exactly this limit, making MSHR count one of
the tunable parameters.
"""

from __future__ import annotations

import heapq


class MSHRFile:
    """Tracks outstanding line fills as (completion_time, line_addr).

    The state of one cache's registers: a min-heap of fill completions
    and a map from each in-flight line to its completion. The cache's
    access path (:meth:`repro.memory.cache.Cache._install_access_path`)
    reads and updates both directly: a miss to an in-flight line merges
    into its fill, and a miss with every register busy waits for the
    earliest completion. :meth:`_expire` retires finished fills.
    """

    __slots__ = ("entries", "_heap", "_inflight")

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self._heap: list = []
        self._inflight: dict = {}

    def _expire(self, now: int) -> None:
        heap = self._heap
        if not heap or heap[0][0] > now:
            return
        inflight = self._inflight
        while heap and heap[0][0] <= now:
            _, line = heapq.heappop(heap)
            # Only drop the mapping if it still refers to this fill.
            done = inflight.get(line)
            if done is not None and done <= now:
                del inflight[line]

    def reset(self) -> None:
        # In place: the cache's access-path closure aliases these.
        self._heap.clear()
        self._inflight.clear()
