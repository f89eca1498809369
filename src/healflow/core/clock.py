"""Virtual clock: deterministic discrete-event scheduling in milliseconds.

Each timer is its own heap entry, a list [fire time, owner rank, creation
sequence, callback], so the heap compares plain integers; the sequence is
unique, which keeps the callback out of every comparison. The sequence number
makes ties fire in creation order, which is what keeps whole runs
reproducible; the rank lets a co-simulation interleave several engines
deterministically at equal timestamps.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class VirtualClock:
    """Monotonic virtual time plus the pending timer queue."""

    def __init__(self):
        self.now = 0
        self._heap: list[list] = []
        self._seq = itertools.count()

    def at(self, time: int, fn: Callable[[], None], rank: int) -> list:
        """Schedule fn at an absolute virtual time (>= now); returns its heap entry."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, clock is at {self.now}")
        entry = [time, rank, next(self._seq), fn]
        heapq.heappush(self._heap, entry)
        return entry

    def after(self, delay: int, fn: Callable[[], None], rank: int) -> list:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.at(self.now + delay, fn, rank)

    @staticmethod
    def cancel(entry: list) -> None:
        """Drop the entry's callback; the entry stays in the heap as a
        tombstone until its fire time comes round, and is then skipped."""
        entry[3] = None

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
            time, _, _, fn = pop(heap)
            if fn is None:
                continue
            self.now = time
            fn()
        self.now = t_end
