"""Virtual clock: deterministic discrete-event scheduling in milliseconds.

Each timer is its own heap entry, a list [fire time, owner rank, creation
sequence, callback, due], so the heap compares plain integers; the sequence is
unique, which keeps the callback out of every comparison. The sequence number
makes ties fire in creation order, which is what keeps whole runs
reproducible; the rank lets a co-simulation interleave several engines
deterministically at equal timestamps. An entry is pending while its callback
is set; cancel() and firing clear it. While a callback runs, `firing_rank` is
its entry's rank; between run_until() calls it is +inf, above every rank.

A timer moved later is not pushed again: rearm() draws the next creation
sequence, exactly as the at() of an eager cancel-and-push would, and records
(time, sequence) as the entry's due. When the entry reaches the top of the
heap under its old key, run_until() moves it to its due and pushes it back
without firing. So every live heap key equals the eager schedule's key, and
callbacks fire in the same order, at the same now, as if each re-arm had
cancelled its timer and pushed a new one.

Which ties the timeline depends on: an engine owns four ranks, for its
deliveries, its node timers, its cluster timers (the boot election, peer
expiries) and its ping tick, whose pings fire next when they land at a lower
delivery rank, so it must not tie with an expiry. Ties among one engine's
cluster timers, and at its ping rank, are order free: fired in any order, they
log the same bytes, which the tie-shuffle tests in tests/test_cluster.py and
tests/test_golden.py check by breaking them at random. Ties among node timers
are not: broken at random, they move flow_a's timeline, so their creation
order is part of the contract. Nor are ties among deliveries (broker
deliveries and datagram events): broken at random, they move the seed-1
timeline of every benchmark workload, though no fixture pin. So their creation
order is part of the contract too, and with it the subscription order in which
World.publish schedules a topic's deliveries.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import partial
from typing import Callable


class VirtualClock:
    """Monotonic virtual time plus the pending timer queue."""

    def __init__(self):
        self.now = 0
        self.firing_rank = math.inf
        self._heap: list[list] = []
        self._seq = itertools.count()

    def at(self, time: int, fn: Callable[[], None], rank: int) -> list:
        """Schedule fn at an absolute virtual time (>= now), under the next
        creation sequence; returns its heap entry."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, clock is at {self.now}")
        entry = [time, rank, next(self._seq), fn, None]
        heapq.heappush(self._heap, entry)
        return entry

    def after(self, delay: int, fn: Callable[[], None], rank: int) -> list:
        return self.at(self.now + delay, fn, rank)

    def rearm(self, entry: list | None, time: int, fn: Callable, rank: int, *args) -> list:
        """Move the timer `entry` (None for a new one) so that fn(*args) fires
        at `time` instead, under the next creation sequence; returns the
        entry that now holds the timer.

        A pending entry of the same rank whose heap time is not later than
        `time` keeps its place and callback, and only records the new due;
        any other is cancelled, and fn(*args) is scheduled through at().
        """
        if entry is not None and entry[3] is not None:
            if rank == entry[1] and time >= entry[0]:
                entry[4] = (time, next(self._seq))
                return entry
            entry[3] = None
        return self.at(time, partial(fn, *args) if args else fn, rank)

    @staticmethod
    def cancel(entry: list) -> None:
        """Drop the entry's callback; the entry stays in the heap as a
        tombstone until its fire time comes round, and is then skipped."""
        entry[3] = None

    def run_until(self, t_end: int) -> None:
        """Fire every timer with fire time <= t_end, then rest at t_end.

        Callbacks may schedule new timers; anything they add at or before
        t_end fires within this call. An entry is no longer pending once its
        callback is called, so a callback that re-arms its own timer gets a
        fresh entry.
        """
        if t_end < self.now:
            raise ValueError(f"t_end {t_end} is before current time {self.now}")
        heap = self._heap
        pop, push = heapq.heappop, heapq.heappush
        while heap and heap[0][0] <= t_end:
            entry = pop(heap)
            fn = entry[3]
            if fn is None:
                continue
            due = entry[4]
            if due is not None:
                entry[0], entry[2] = due
                entry[4] = None
                push(heap, entry)
                continue
            entry[3] = None
            self.now = entry[0]
            self.firing_rank = entry[1]
            fn()
        self.now = t_end
        self.firing_rank = math.inf
