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
