"""Store buffer with forwarding and optional line coalescing.

Stores retire into the buffer and drain to the L1D in order; a full
buffer back-pressures the core. Loads snoop the buffer for
store-to-load forwarding — the behaviour the load/store-dependence
micro-benchmarks stress. Line coalescing (merging a store into an
already-buffered line) is one of the undisclosed behaviours the
ground-truth hardware enables.
"""

from __future__ import annotations

from collections import deque


class StoreBuffer:
    """In-order draining store buffer.

    The state of the buffer and its counters. The hierarchy's ``store``
    closure (:meth:`repro.memory.hierarchy.MemoryHierarchy._bind_access_paths`)
    buffers each store and drains it to the L1D; a full buffer stalls
    the store until the oldest entry drains. :meth:`forward` is the
    loads' snoop.
    """

    __slots__ = ("entries", "coalescing", "forward_latency", "_fifo", "_by_line",
                 "_last_drain_done", "pushes", "coalesced", "full_stalls", "forwards")

    def __init__(self, entries: int, coalescing: bool = False, forward_latency: int = 1) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        if forward_latency < 0:
            raise ValueError("forward_latency must be non-negative")
        self.entries = entries
        self.coalescing = coalescing
        self.forward_latency = forward_latency
        #: FIFO of (line_addr, drain_completion_cycle).
        self._fifo: deque = deque()
        #: line_addr -> newest drain completion (forwarding snoop).
        self._by_line: dict = {}
        self._last_drain_done = 0
        self.pushes = 0
        self.coalesced = 0
        self.full_stalls = 0
        self.forwards = 0

    def _expire(self, now: int) -> None:
        fifo = self._fifo
        if not fifo or fifo[0][1] > now:
            return
        by_line = self._by_line
        while fifo and fifo[0][1] <= now:
            line_addr, done = fifo.popleft()
            if by_line.get(line_addr) == done:
                del by_line[line_addr]

    def forward(self, line_addr: int, now: int) -> int:
        """Forwarding snoop for a load: cycle data is available, or -1."""
        if not self._by_line:
            # Empty buffer (no line can be newer in the FIFO than in the
            # snoop map, so an empty map means an empty FIFO): nothing
            # to expire, nothing to forward.
            return -1
        self._expire(now)
        if line_addr in self._by_line:
            self.forwards += 1
            return now + self.forward_latency
        return -1

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    def reset(self) -> None:
        # In place: the hierarchy's store closure aliases these.
        self._fifo.clear()
        self._by_line.clear()
        self._last_drain_done = 0
        self.pushes = 0
        self.coalesced = 0
        self.full_stalls = 0
        self.forwards = 0
