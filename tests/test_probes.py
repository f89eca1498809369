import pytest
from hypothesis import given, strategies as st

from healflow.nodes.probes import ThresholdCheck


# --- threshold-check -----------------------------------------------------------

def test_threshold_passes_in_range(harness):
    h = harness("threshold-check", {"low": 0, "high": 50})
    h.feed_at(10, 23.5)
    h.run(20)
    assert h.emits(0) == [(10, 23.5)]
    assert h.emits(1) == []


def test_threshold_boundaries_inclusive(harness):
    h = harness("threshold-check", {"low": 0, "high": 50})
    for t, v in ((1, 0), (2, 50)):
        h.feed_at(t, v)
    h.run(10)
    assert [v for _, v in h.emits(0)] == [0, 50]


def test_threshold_out_of_range_goes_to_error(harness):
    h = harness("threshold-check", {"low": 0, "high": 50})
    h.feed_at(5, -3)
    h.run(10)
    assert h.emits(0) == []
    [(_, err)] = h.emits(1)
    assert err["kind"] == "out-of-range"
    assert err["value"] == -3


def test_threshold_malformed_payload(harness):
    h = harness("threshold-check", {"low": 0, "high": 50})
    h.feed_at(5, "not-a-number")
    h.run(10)
    [(_, err)] = h.emits(1)
    assert err["kind"] == "malformed"


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_threshold_partition_exactly_one_egress(value):
    problems = ThresholdCheck.validate_config({"low": -10.0, "high": 10.0})
    assert problems == []
    # one egress fires per reading, never both
    from tests.conftest import NodeHarness
    h = NodeHarness("threshold-check", {"low": -10.0, "high": 10.0})
    h.feed_at(1, value)
    h.run(2)
    assert len(h.emits(0)) + len(h.emits(1)) == 1


# --- readings-watcher -----------------------------------------------------------

def test_watcher_first_reading_always_passes(harness):
    h = harness("readings-watcher", {"minDelta": 5})
    h.feed_at(1, 100)
    h.run(2)
    assert h.emits(0) == [(1, 100)]


def test_watcher_max_change_anomaly(harness):
    h = harness("readings-watcher", {"maxDelta": 5})
    h.feed_at(1, 20)
    h.feed_at(2, 40)
    h.run(3)
    assert [v for _, v in h.emits(0)] == [20]
    [(_, anom)] = h.emits(1)
    assert anom["kind"] == "max-change"
    assert anom["delta"] == 20


def test_watcher_stuck_at_on_third_identical(harness):
    h = harness("readings-watcher", {"stuckCount": 3})
    for t in (1, 2, 3):
        h.feed_at(t, 7)
    h.run(4)
    assert [v for _, v in h.emits(0)] == [7, 7]
    anomalies = h.emits(1)
    assert len(anomalies) == 1
    assert anomalies[0][1]["kind"] == "stuck-at"
    assert anomalies[0][0] == 3


def test_watcher_min_change_anomaly(harness):
    h = harness("readings-watcher", {"minDelta": 1.0, "stuckCount": 5})
    h.feed_at(1, 10.0)
    h.feed_at(2, 10.4)
    h.run(3)
    [(_, anom)] = h.emits(1)
    assert anom["kind"] == "min-change"


def test_watcher_non_number_is_malformed_and_keeps_the_previous_reading(harness):
    h = harness("readings-watcher", {"stuckCount": 2})
    for t, v in ((1, 10), (2, "high"), (3, True), (4, 10)):
        h.feed_at(t, v)
    h.run(5)
    assert h.emits(0) == [(1, 10)]
    assert h.emits(1) == [(2, {"kind": "malformed", "value": "high"}),
                          (3, {"kind": "malformed", "value": True}),
                          (4, {"kind": "stuck-at", "value": 10, "delta": 0})]


def test_watcher_default_stuck_count_is_two(harness):
    h = harness("readings-watcher")
    h.feed_at(1, 3)
    h.feed_at(2, 3)
    h.run(3)
    assert h.emits(1)[0][1]["kind"] == "stuck-at"


# --- timing-check ----------------------------------------------------------------

def test_timing_first_message_is_normal(harness):
    h = harness("timing-check", {"expected": 15000})
    h.feed_at(100, "card")
    h.run(200)
    assert h.emits(1) == [(100, "card")]


def test_timing_fast_gap(harness):
    h = harness("timing-check", {"expected": 15000})
    h.feed_at(0, "a")
    h.feed_at(5000, "b")
    h.run(6000)
    assert [v for _, v in h.emits(0)] == ["b"]


def test_timing_exact_gap_zero_tolerance_is_normal(harness):
    h = harness("timing-check", {"expected": 15000, "tolerance": 0})
    h.feed_at(0, "a")
    h.feed_at(15000, "b")
    h.run(16000)
    assert [v for _, v in h.emits(1)] == ["a", "b"]


def test_timing_slow_gap(harness):
    h = harness("timing-check", {"expected": 15000})
    h.feed_at(0, "a")
    h.feed_at(40000, "b")
    h.run(50000)
    assert [v for _, v in h.emits(2)] == ["b"]


def test_timing_tolerance_widens_normal_band(harness):
    h = harness("timing-check", {"expected": 10000, "tolerance": 0.2})
    h.feed_at(0, "a")
    h.feed_at(8000, "b")    # exactly the lower edge, still normal
    h.feed_at(15900, "c")   # gap 7900 < 8000, too fast
    h.run(20000)
    assert [v for _, v in h.emits(1)] == ["a", "b"]
    assert [v for _, v in h.emits(0)] == ["c"]


# --- resource-monitor ---------------------------------------------------------------

def test_resource_monitor_near_min_alert(harness):
    h = harness("resource-monitor", {"metric": "freeHeapPct", "nearMin": 10})
    h.feed_at(1, {"freeHeapPct": 5})
    h.run(2)
    [(_, alert)] = h.emits(1)
    assert alert == {"metric": "freeHeapPct", "value": 5, "bound": "nearMin", "limit": 10}


def test_resource_monitor_ok(harness):
    h = harness("resource-monitor", {"metric": "freeHeapPct", "nearMin": 10})
    h.feed_at(1, {"freeHeapPct": 50})
    h.run(2)
    assert len(h.emits(0)) == 1
    assert h.emits(1) == []


def test_resource_monitor_missing_key_is_error(harness):
    h = harness("resource-monitor", {"metric": "freeHeapPct", "nearMax": 90})
    h.feed_at(1, {"cpu": 10})
    h.run(2)
    [(_, err)] = h.emits(2)
    assert err["kind"] == "missing-metric"


@pytest.mark.parametrize("payload, error", [
    (5, {"kind": "malformed", "value": 5}),
    ([{"temp": 95}], {"kind": "malformed", "value": [{"temp": 95}]}),
    ({"temp": "95"}, {"kind": "malformed", "metric": "temp", "value": "95"}),
    ({"temp": None}, {"kind": "malformed", "metric": "temp", "value": None}),
])
def test_resource_monitor_malformed_reading_is_error(harness, payload, error):
    h = harness("resource-monitor", {"metric": "temp", "nearMax": 90})
    h.feed_at(1, payload)
    h.run(2)
    assert h.emits() == [(1, error)]
    assert [e.port for e in h.engine.log.emits("n")] == [2]


def test_resource_monitor_requires_some_bound():
    from healflow.nodes.probes import ResourceMonitor
    assert ResourceMonitor.validate_config({"metric": "x"}) != []


def test_resource_monitor_near_max_boundary(harness):
    h = harness("resource-monitor", {"metric": "temp", "nearMax": 90})
    h.feed_at(1, {"temp": 90})
    h.run(2)
    assert h.emits(1)[0][1]["bound"] == "nearMax"


# --- heartbeat -------------------------------------------------------------------
# Oracle for the silence schedule: replay the restartable timer by hand.

def heartbeat_error_times(inputs, timeout, t_end):
    errors = []
    deadline = timeout  # timer armed at node start
    for t in sorted(inputs) + [None]:
        while deadline <= t_end and (t is None or deadline < t):
            # no input before the deadline: error fires and the timer restarts
            errors.append(deadline)
            deadline += timeout
        if t is not None and t <= t_end:
            deadline = t + timeout
    return errors


def test_heartbeat_error_timing_matches_oracle(harness):
    # inputs at 0 and 60s, then silence: first error at 150s, then repeats
    h = harness("heartbeat", {"timeout": 90000})
    h.feed_at(0, "m1")
    h.feed_at(60000, "m2")
    h.run(400000)
    expected = heartbeat_error_times([0, 60000], 90000, 400000)
    assert expected[:3] == [150000, 240000, 330000]
    assert [t for t, _ in h.emits(2)] == expected


def test_heartbeat_passive_emits_ok_only(harness):
    h = harness("heartbeat", {"timeout": 90000, "mode": "passive"})
    h.feed_at(10, "m")
    h.run(20)
    assert h.emits(0) == []
    assert h.emits(1) == [(10, "ok")]


def test_heartbeat_active_emits_ping_and_ok(harness):
    h = harness("heartbeat", {"timeout": 90000, "mode": "active",
                              "ping": "PING", "ok": "OK"})
    h.feed_at(10, "m")
    h.run(20)
    assert h.emits(0) == [(10, "PING")]
    assert h.emits(1) == [(10, "OK")]


def test_heartbeat_silence_from_start(harness):
    h = harness("heartbeat", {"timeout": 5000, "error": "dead"})
    h.run(16000)
    assert h.emits(2) == [(5000, "dead"), (10000, "dead"), (15000, "dead")]


@given(st.lists(st.integers(min_value=0, max_value=200), max_size=6), st.integers(30, 90))
def test_heartbeat_exactness_property(inputs, timeout):
    # An error at t means: no input in (t-timeout, t] and the last activity
    # (input or error) happened exactly timeout ago.
    from tests.conftest import NodeHarness
    t_end = 600
    h = NodeHarness("heartbeat", {"timeout": timeout})
    for t in sorted(set(inputs)):
        h.feed_at(t, "x")
    h.run(t_end)
    errors = [t for t, _ in h.emits(2)]
    assert errors == heartbeat_error_times(sorted(set(inputs)), timeout, t_end)
    for err_t in errors:
        assert not any(err_t - timeout < t <= err_t for t in inputs)
