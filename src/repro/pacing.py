"""One pacing rule for every idle poll loop on the fleet path.

A loop that waits for something another process delivers (a race step's
results, a batch's completions, a claimable task) cannot sleep a fixed
interval — too short hammers the queue, too long adds latency to every
step — so it naps for

    nap = clamp(waited / 2, floor, cap)

where ``waited`` is the sum of the loop's own naps since the last
delivery. A delivery that lands ``d`` seconds into the wait is therefore
noticed at most ``max(floor, d / 2)`` late (doubling naps allow a full
``d``), and a long idle stretch settles at ``cap``. Because ``waited``
counts naps rather than reading a clock, the schedule is the same on a
fake clock as on a real one, so loops using it test deterministically.
"""

from __future__ import annotations


class Pacer:
    """Nap lengths for one poll loop (see module docs).

    Call :meth:`nap` before each idle sleep and :meth:`reset` whenever
    the loop receives something. A ``cap`` below ``floor`` naps at
    ``floor``.
    """

    __slots__ = ("floor", "cap", "waited")

    def __init__(self, floor: float, cap: float) -> None:
        self.floor = float(floor)
        self.cap = max(float(cap), self.floor)
        self.waited = 0.0

    def nap(self) -> float:
        """The next sleep, seconds; counted as waited."""
        nap = min(max(self.waited / 2, self.floor), self.cap)
        self.waited += nap
        return nap

    def reset(self) -> None:
        """A delivery arrived: the next nap starts from ``floor`` again."""
        self.waited = 0.0
