import heapq
import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from healflow.core.clock import VirtualClock


def test_fires_in_time_order():
    clock = VirtualClock()
    fired = []
    clock.at(300, lambda: fired.append("c"), rank=0)
    clock.at(100, lambda: fired.append("a"), rank=0)
    clock.at(200, lambda: fired.append("b"), rank=0)
    clock.run_until(1000)
    assert fired == ["a", "b", "c"]
    assert clock.now == 1000


def test_equal_fire_times_break_ties_by_creation_order():
    clock = VirtualClock()
    fired = []
    clock.at(500, lambda: fired.append("first-created"), rank=0)
    clock.at(500, lambda: fired.append("second-created"), rank=0)
    clock.run_until(500)
    assert fired == ["first-created", "second-created"]


def test_rank_orders_equal_times_before_sequence():
    clock = VirtualClock()
    fired = []
    clock.at(500, lambda: fired.append("late-rank0"), rank=0)
    clock.at(500, lambda: fired.append("early-rank2"), rank=2)
    clock.at(500, lambda: fired.append("mid-rank1"), rank=1)
    clock.run_until(500)
    assert fired == ["late-rank0", "mid-rank1", "early-rank2"]


def test_cancelled_timers_are_skipped():
    clock = VirtualClock()
    fired = []
    first = clock.at(100, lambda: fired.append("first"), rank=0)
    drop = clock.at(100, lambda: fired.append("drop"), rank=0)
    late = clock.at(150, lambda: fired.append("late"), rank=0)
    clock.at(200, lambda: fired.append("last"), rank=0)
    clock.cancel(drop)
    clock.cancel(late)
    clock.cancel(late)
    clock.run_until(120)
    clock.cancel(first)  # already fired: a no-op
    clock.run_until(200)
    assert fired == ["first", "last"]


def test_callbacks_can_schedule_more_work():
    clock = VirtualClock()
    fired = []

    def tick():
        fired.append(clock.now)
        if clock.now < 50:
            clock.after(10, tick, rank=0)

    clock.at(10, tick, rank=0)
    clock.run_until(100)
    assert fired == [10, 20, 30, 40, 50]


def test_scheduling_in_the_past_is_rejected():
    clock = VirtualClock()
    clock.run_until(100)
    with pytest.raises(ValueError):
        clock.at(50, lambda: None, rank=0)
    with pytest.raises(ValueError):
        clock.run_until(50)


def test_now_is_monotonic_through_a_run():
    clock = VirtualClock()
    seen = []
    for t in (5, 15, 15, 40):
        clock.at(t, lambda: seen.append(clock.now), rank=0)
    clock.run_until(40)
    assert seen == sorted(seen)


MAX_TIMERS = 60


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_firing_order_is_key_order_without_cancelled_timers(data):
    """Timers fire sorted by (time, rank, creation order), cancelled ones left out.

    Callbacks schedule more timers, some at the current time, and cancel
    others, pending or already fired. A timer scheduled at the current time
    gets a rank no lower than the firing one, so its key sorts after it.
    """
    clock = VirtualClock()
    timers, keys, fired, cancelled = [], [], [], set()

    def schedule(time, rank, via_after):
        i = len(timers)
        fn = lambda: fire(i)  # noqa: E731
        if via_after:
            timers.append(clock.after(time - clock.now, fn, rank=rank))
        else:
            timers.append(clock.at(time, fn, rank=rank))
        keys.append((time, rank, i))

    def cancel(j):
        if j not in fired:
            cancelled.add(j)
        clock.cancel(timers[j])

    def fire(i):
        assert clock.now == keys[i][0]
        fired.append(i)
        for _ in range(data.draw(st.integers(0, 3), label="actions")):
            if data.draw(st.booleans(), label="schedule") and len(timers) < MAX_TIMERS:
                delay = data.draw(st.integers(0, 20), label="delay")
                low = keys[i][1] if delay == 0 else 0
                schedule(clock.now + delay, data.draw(st.integers(low, 3), label="rank"),
                         data.draw(st.booleans(), label="after"))
            else:
                cancel(data.draw(st.integers(0, len(timers) - 1), label="cancel"))

    for _ in range(data.draw(st.integers(1, 12), label="initial")):
        schedule(data.draw(st.integers(0, 50), label="time"),
                 data.draw(st.integers(0, 3), label="rank"),
                 data.draw(st.booleans(), label="after"))
    for j in data.draw(st.lists(st.integers(0, len(timers) - 1), max_size=4),
                       label="cancel before run"):
        cancel(j)
    t_end = data.draw(st.integers(0, 80), label="t_end")
    clock.run_until(t_end)

    expected = sorted((i for i, key in enumerate(keys)
                       if key[0] <= t_end and i not in cancelled), key=keys.__getitem__)
    assert fired == expected
    assert clock.now == t_end
    assert [t[2] for t in timers] == sorted(t[2] for t in timers)


# --- re-arm -------------------------------------------------------------------------

class EagerClock:
    """Reference model: the clock before lazy re-arm, in which every re-arm
    cancels its entry and pushes a new one."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = itertools.count()

    def at(self, time, fn, rank):
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, clock is at {self.now}")
        entry = [time, rank, next(self._seq), fn]
        heapq.heappush(self._heap, entry)
        return entry

    def rearm(self, entry, time, fn, rank, *args):
        if entry is not None:
            self.cancel(entry)
        return self.at(time, partial(fn, *args) if args else fn, rank)

    @staticmethod
    def cancel(entry):
        entry[3] = None

    def run_until(self, t_end):
        while self._heap and self._heap[0][0] <= t_end:
            time, _, _, fn = heapq.heappop(self._heap)
            if fn is not None:
                self.now = time
                fn()
        self.now = t_end


def test_rearm_later_keeps_the_entry_and_fires_once_at_the_new_time():
    clock = VirtualClock()
    fired = []
    entry = clock.rearm(None, 100, fired.append, 0, "a")
    clock.run_until(50)
    assert clock.rearm(entry, 150, fired.append, 0, "a") is entry
    assert clock.rearm(entry, 120, fired.append, 0, "a") is entry
    clock.run_until(119)
    assert fired == []
    clock.run_until(500)
    assert fired == ["a"] and clock.now == 500


def test_rearm_earlier_or_of_a_fired_entry_pushes_a_new_one():
    clock = VirtualClock()
    fired = []
    entry = clock.rearm(None, 100, lambda: fired.append(clock.now), 0)
    earlier = clock.rearm(entry, 60, lambda: fired.append(clock.now), 0)
    assert earlier is not entry
    clock.run_until(100)
    assert fired == [60]
    again = clock.rearm(earlier, 130, lambda: fired.append(clock.now), 0)
    assert again is not earlier
    clock.run_until(200)
    assert fired == [60, 130]


def test_rearm_under_another_rank_takes_the_new_rank():
    clock = VirtualClock()
    fired = []
    entry = clock.at(10, lambda: fired.append("a"), rank=2)
    clock.at(20, lambda: fired.append("b"), rank=1)
    clock.rearm(entry, 20, fired.append, 0, "a")
    clock.run_until(20)
    assert fired == ["a", "b"]


def test_cancel_of_a_deferred_entry_drops_it():
    clock = VirtualClock()
    fired = []
    entry = clock.at(100, lambda: fired.append("x"), 0)
    clock.rearm(entry, 300, fired.append, 0, "x")
    clock.cancel(entry)
    clock.run_until(1000)
    assert fired == []


KEYS = 4
REACTION_CAP = 150


timer_op = st.one_of(
    st.tuples(st.just("rearm"), st.integers(0, KEYS - 1), st.integers(0, 10), st.integers(0, 2)),
    st.tuples(st.just("clear"), st.integers(0, KEYS - 1)),
)


def drive(clock, program, reactions):
    """Run `program` on `clock`; returns the (key, now) of every firing and the
    seq counter's next value. Each firing of key k runs the ops reactions[k],
    until REACTION_CAP firings have happened."""
    timers, fired = {}, []

    def apply(step):
        if step[0] == "rearm":
            _, key, delay, rank = step
            timers[key] = clock.rearm(timers.get(key), clock.now + delay, fire, rank, key)
        elif step[1] in timers:
            clock.cancel(timers.pop(step[1]))

    def fire(key):
        fired.append((key, clock.now))
        if len(fired) < REACTION_CAP:
            for step in reactions[key]:
                apply(step)

    for step in program:
        if step[0] == "run":
            clock.run_until(clock.now + step[1])
        else:
            apply(step)
    clock.run_until(clock.now + 100)
    return fired, clock.at(clock.now, lambda: None, 0)[2]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(timer_op, st.tuples(st.just("run"), st.integers(0, 12))), max_size=40),
       st.lists(st.lists(timer_op, max_size=2), min_size=KEYS, max_size=KEYS))
def test_rearm_fires_as_the_eager_cancel_and_push_clock_does(program, reactions):
    """Arms, later, earlier and same-time re-arms, clears of pending, deferred
    and fired timers, callbacks that re-arm their own or another key, and
    run_until split over several calls: both clocks fire the same keys in the
    same order at the same now and end on the same seq counter."""
    lazy, eager = VirtualClock(), EagerClock()
    assert drive(lazy, program, reactions) == drive(eager, program, reactions)
    assert lazy.now == eager.now
    keys = [tuple(entry[:3]) for entry in lazy._heap]
    assert len(set(keys)) == len(keys)
