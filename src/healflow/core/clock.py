"""Virtual clock: deterministic discrete-event scheduling in milliseconds.

All timers live on one priority queue of (fire time, owner rank, creation
sequence, timer) tuples, so the heap compares plain integers and never the
timers themselves; the sequence is unique, which keeps the timer slot out of
every comparison. The sequence number makes ties fire in creation order,
which is what keeps whole runs reproducible; the rank lets a co-simulation
interleave several engines deterministically at equal timestamps.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class Timer:
    """A scheduled callback, queued as the heap entry (time, rank, seq, timer).

    Cancelling only flags the timer: its entry stays in the heap as a
    tombstone until its fire time comes round, and is then skipped.
    """

    __slots__ = ("time", "rank", "seq", "fn", "cancelled")

    def __init__(self, time: int, rank: int, seq: int, fn: Callable[[], None]):
        self.time = time
        self.rank = rank
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return f"Timer(t={self.time}, rank={self.rank}, seq={self.seq}{state})"


class VirtualClock:
    """Monotonic virtual time plus the pending timer queue."""

    def __init__(self):
        self.now = 0
        self._heap: list[tuple[int, int, int, Timer]] = []
        self._seq = itertools.count()

    def at(self, time: int, fn: Callable[[], None], rank: int = 0) -> Timer:
        """Schedule fn at an absolute virtual time (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, clock is at {self.now}")
        seq = next(self._seq)
        timer = Timer(time, rank, seq, fn)
        heapq.heappush(self._heap, (time, rank, seq, timer))
        return timer

    def after(self, delay: int, fn: Callable[[], None], rank: int = 0) -> Timer:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.at(self.now + delay, fn, rank)

    @staticmethod
    def cancel(timer: Timer) -> None:
        timer.cancelled = True

    def run_until(self, t_end: int) -> None:
        """Fire every timer with fire time <= t_end, then rest at t_end.

        Callbacks may schedule new timers; anything they add at or before
        t_end fires within this call.
        """
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} is before current time {self.now}")
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            time, _, _, timer = pop(heap)
            if timer.cancelled:
                continue
            self.now = time
            timer.fn()
        self.now = t_end
