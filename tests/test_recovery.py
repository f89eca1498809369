import functools
import json
import operator

import pytest
from hypothesis import given, strategies as st

from healflow.core.graph import parse_flow
from healflow.nodes.recovery import Checkpoint
from healflow.persistence import Store, StoreError
from tests.conftest import NodeHarness, make_engine


# --- compensate ---------------------------------------------------------------
# Oracle: replay the bounded-history recursion by hand. Substitutes re-enter
# the history exactly like real inputs do. avg sums left to right, which is
# what sum() did before Python 3.12 made it compensated.

def left_to_right_mean(values):
    return functools.reduce(operator.add, values, 0) / len(values)


def compensate_oracle(real_inputs, n_timeouts, strategy, cap=10, decay=0.9):
    history = []
    confidence = 1.0

    def absorb(v):
        if len(history) >= cap:
            del history[0]
        history.append(v)

    for v in real_inputs:
        absorb(v)
        confidence = 1.0
    out = []
    fns = {"last": lambda h: h[-1], "avg": left_to_right_mean,
           "max": max, "min": min}
    for _ in range(n_timeouts):
        sub = fns[strategy](history)
        confidence *= decay
        absorb(sub)
        out.append((sub, confidence))
    return out


def test_history_eviction_at_capacity(harness):
    h = harness("compensate", {"interval": 1000, "historyMaxSize": 10})
    for i, v in enumerate(range(1, 12)):
        h.feed_at(i + 1, v)
    h.run(20)
    node = h.engine.nodes["n"]
    assert node.history == list(range(2, 12))


def test_healthy_stream_passes_values_unchanged(harness):
    h = harness("compensate", {"interval": 60000, "strategy": "last"})
    values = [20.1, 20.7, 21.3, 20.9]
    for i, v in enumerate(values):
        h.feed_at(60000 * (i + 1), v)
    h.run(240000)
    out = h.emits(0)
    assert [p["value"] for _, p in out] == values
    assert all(p["substituted"] is False and p["confidence"] == 1.0 for _, p in out)


def test_first_ever_input(harness):
    h = harness("compensate", {"interval": 60000})
    h.feed_at(100, 42)
    h.run(200)
    assert h.emits(0) == [(100, {"value": 42, "substituted": False, "confidence": 1.0})]
    assert h.engine.nodes["n"].history == [42]


def test_last_strategy_substitutes_last_reading(harness):
    h = harness("compensate", {"interval": 60000, "strategy": "last"})
    h.feed_at(60000, 21.5)
    h.run(180000)
    subs = [(t, p) for t, p in h.emits(0) if p["substituted"]]
    assert [(t, p["value"]) for t, p in subs] == [(120000, 21.5), (180000, 21.5)]


def test_avg_strategy_is_arithmetic_mean(harness):
    h = harness("compensate", {"interval": 10000, "strategy": "avg"})
    for t, v in ((1000, 40), (2000, 50), (3000, 60)):
        h.feed_at(t, v)
    h.run(13000)
    subs = [p["value"] for _, p in h.emits(0) if p["substituted"]]
    assert subs == [50]


def test_avg_sums_left_to_right_on_every_python(harness):
    # 0.1 ten times sums to 0.9999999999999999 left to right, but to 1.0
    # under the compensated sum() of Python 3.12 and later.
    h = harness("compensate", {"interval": 1000, "strategy": "avg"})
    for t in range(1, 11):
        h.feed_at(t, 0.1)
    h.run(1010)
    [(t, sub)] = [(t, p["value"]) for t, p in h.emits(0) if p["substituted"]]
    assert (t, sub) == (1010, 0.9999999999999999 / 10)


def test_double_timeout_feeds_substitute_back_into_history(harness):
    # avg over a 10-deep history; the second substitute averages over a
    # history that already contains the first substitute.
    inputs = list(range(1, 11))
    h = harness("compensate", {"interval": 1000, "strategy": "avg", "historyMaxSize": 10})
    for i, v in enumerate(inputs):
        h.feed_at(i + 1, v)
    h.run(10 + 2000)
    subs = [(p["value"], p["confidence"]) for _, p in h.emits(0) if p["substituted"]]
    assert subs == compensate_oracle(inputs, 2, "avg")
    # spot-check the recursion by hand: mean(1..10)=5.5, then mean(2..10,5.5)
    assert subs[0][0] == 5.5
    assert subs[1][0] == (sum(range(2, 11)) + 5.5) / 10


def test_confidence_decays_per_consecutive_substitution(harness):
    h = harness("compensate", {"interval": 1000, "strategy": "last",
                               "confidenceDecay": 0.5})
    h.feed_at(10, 9)
    h.run(10 + 3000)
    confidences = [p["confidence"] for _, p in h.emits(0) if p["substituted"]]
    assert confidences == [0.5, 0.25, 0.125]


def test_real_input_resets_confidence(harness):
    h = harness("compensate", {"interval": 1000, "strategy": "last"})
    h.feed_at(10, 1)
    h.feed_at(2500, 2)  # after two substitutions
    h.run(4000)
    out = [p for _, p in h.emits(0)]
    assert [p["substituted"] for p in out] == [False, True, True, False, True]
    assert out[3]["confidence"] == 1.0
    assert out[4]["confidence"] == 0.9


def test_empty_history_timeout_is_an_error_not_a_value(harness):
    h = harness("compensate", {"interval": 5000})
    h.run(12000)
    assert h.emits(0) == []
    errors = h.emits(1)
    assert [t for t, _ in errors] == [5000, 10000]
    assert all(p["kind"] == "empty-history" for _, p in errors)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
       st.integers(1, 5),
       st.sampled_from(["last", "avg", "max", "min"]))
def test_substitution_recursion_matches_oracle(inputs, n_timeouts, strategy):
    h = NodeHarness("compensate", {"interval": 1000, "strategy": strategy,
                                   "historyMaxSize": 10})
    for i, v in enumerate(inputs):
        h.feed_at(i + 1, v)
    h.run(len(inputs) + n_timeouts * 1000)
    subs = [(p["value"], p["confidence"]) for _, p in h.emits(0) if p["substituted"]]
    assert subs == compensate_oracle(inputs, n_timeouts, strategy)


def faults(log):
    return [e.value for e in log if e.kind == "fault"]


def test_null_config_field_means_its_default():
    graph = parse_flow(json.dumps({"nodes": [{"id": "n", "type": "compensate", "config": {
        "interval": 1000, "historyMaxSize": None}}]}))
    assert graph.by_id["n"].config["historyMaxSize"] == 10
    engine = make_engine(graph)
    for t in (1, 2, 3):
        engine.clock.at(t, functools.partial(engine.deliver_external, "n", "", 20.0, 0), rank=0)
    engine.start()
    log = engine.run_until(5000)
    assert len([e for e in log.emits("n") if e.value["substituted"]]) == 4
    assert faults(log) == []


@pytest.mark.parametrize("strategy", ["avg", "max", "min"])
def test_a_non_numeric_reading_never_stops_the_watchdog(harness, strategy):
    h = harness("compensate", {"interval": 1000, "strategy": strategy})
    h.feed_at(0, 1.0)
    h.feed_at(500, None, topic="lab/t")
    log = h.run(60000)
    assert h.emits(1) == [(500, {"kind": "malformed", "value": None})]
    subs = [(t, p["value"]) for t, p in h.emits(0) if p["substituted"]]
    assert subs == [(t, 1.0) for t in range(1000, 60001, 1000)]
    assert faults(log) == []
    assert h.engine.nodes["n"].history == [1.0] * 10


def test_an_aggregate_that_raises_never_stops_the_watchdog(harness):
    # No float holds 10**400, so the mean raises OverflowError until readings evict it.
    h = harness("compensate", {"interval": 100, "strategy": "avg", "historyMaxSize": 2})
    h.feed_at(0, 10**400)
    h.feed_at(250, 1.0)
    h.feed_at(260, 3.0)
    log = h.run(500)
    assert [(e.time, e.value["kind"]) for e in log if e.kind == "fault"] == [
        (100, "operator-error"), (200, "operator-error")]
    subs = [(t, p["value"]) for t, p in h.emits(0) if p["substituted"]]
    assert subs == [(360, 2.0), (460, 2.5)]


# --- checkpoint ----------------------------------------------------------------

def test_checkpoint_stores_then_forwards(harness):
    store = Store()
    h = harness("checkpoint", {"timeToLive": 300000}, store=store)
    h.feed_at(100000, {"t": 20}, topic="lab/x")
    h.run(100001)
    assert h.emits(0) == [(100000, {"t": 20})]
    record = store.load_checkpoint("n")
    assert record.timestamp == 100000
    assert record.payload == {"t": 20}
    assert record.topic == "lab/x"


def test_checkpoint_single_slot_keeps_latest(harness):
    store = Store()
    h = harness("checkpoint", {"timeToLive": 300000}, store=store)
    h.feed_at(10, "first")
    h.feed_at(20, "second")
    h.run(30)
    assert store.load_checkpoint("n").payload == "second"


def test_checkpoint_replays_within_ttl(harness):
    store = Store()
    writer = harness("checkpoint", {"timeToLive": 300000}, store=store)
    writer.feed_at(100000, 33, topic="lab/t")
    writer.run(100001)

    restarted = harness("checkpoint", {"timeToLive": 300000}, store=store)
    restarted.engine.clock.run_until(250000)
    restarted.run(250001)
    assert restarted.emits(0) == [(250000, 33)]
    # replay-once: the slot was cleared
    assert store.load_checkpoint("n") is None


def test_checkpoint_no_replay_past_ttl(harness):
    store = Store()
    writer = harness("checkpoint", {"timeToLive": 300000}, store=store)
    writer.feed_at(100000, 33)
    writer.run(100001)

    restarted = harness("checkpoint", {"timeToLive": 300000}, store=store)
    restarted.engine.clock.run_until(500000)
    restarted.run(500001)
    assert restarted.emits(0) == []


def test_checkpoint_ttl_boundary_exact():
    store = Store()
    writer = NodeHarness("checkpoint", {"timeToLive": 1000}, store=store)
    writer.feed_at(100, "m")
    writer.run(101)

    at_ttl = NodeHarness("checkpoint", {"timeToLive": 1000}, store=store)
    at_ttl.engine.clock.run_until(1100)  # aliveTime == ttl exactly
    at_ttl.run(1101)
    assert at_ttl.emits(0) == [(1100, "m")]

    writer2 = NodeHarness("checkpoint", {"timeToLive": 1000}, store=store)
    writer2.feed_at(2000, "m2")
    writer2.run(2001)
    past = NodeHarness("checkpoint", {"timeToLive": 1000}, store=store)
    past.engine.clock.run_until(3001)  # aliveTime == ttl + 1
    past.run(3002)
    assert past.emits(0) == []


@pytest.mark.parametrize("payload", [None, 1])
def test_checkpoint_replays_any_stored_message_once_null_included(harness, payload):
    h = harness("checkpoint", {"timeToLive": 1000})
    h.feed_at(0, payload)
    h.run(50)
    h.engine.restart().restart()  # the second restart finds the slot cleared
    assert h.emits(0) == [(0, payload), (50, payload)]


@pytest.mark.parametrize("ttl, problems", [
    (1, []), (0, ["config 'timeToLive' must be > 0"]), (-1, ["config 'timeToLive' must be > 0"])])
def test_checkpoint_time_to_live_must_be_positive(ttl, problems):
    assert Checkpoint.validate_config({"timeToLive": ttl}) == problems


def test_checkpoint_empty_store_no_replay(harness):
    h = harness("checkpoint", {"timeToLive": 1000}, store=Store())
    h.run(5000)
    assert h.emits(0) == []


def test_checkpoint_store_failure_still_forwards(harness):
    class BrokenStore(Store):
        def store_checkpoint(self, *a, **k):
            raise StoreError("disk gone")

    h = harness("checkpoint", {"timeToLive": 1000}, store=BrokenStore())
    h.feed_at(10, "precious")
    h.run(20)
    assert h.emits(0) == [(10, "precious")]
    faults = [e for e in h.engine.log if e.kind == "fault"]
    assert faults and faults[0].value["kind"] == "store-error"


def test_checkpoint_clear_failure_is_logged_and_the_replay_still_emitted(harness):
    class StuckStore(Store):
        def clear_checkpoint(self, node_id):
            raise StoreError("read-only")

    h = harness("checkpoint", {"timeToLive": 1000}, store=StuckStore())
    h.feed_at(0, "precious")
    h.run(50)
    h.engine.restart()
    assert h.emits(0) == [(0, "precious"), (50, "precious")]
    [fault] = [e for e in h.engine.log if e.kind == "fault"]
    assert (fault.time, fault.node) == (50, "n")
    assert fault.value == {"kind": "store-error", "error": "read-only"}


# --- kalman-filter ----------------------------------------------------------------
# Oracle: independent scalar recursion.

def kalman_oracle(measurements, q, r):
    estimates = []
    x = p = None
    for z in measurements:
        if x is None:
            x, p = float(z), float(r)
        else:
            p = p + q
            k = p / (p + r)
            x = x + k * (z - x)
            p = (1 - k) * p
        estimates.append(x)
    return estimates


def test_kalman_documented_two_step_trajectory(harness):
    # q=0, r=1: init on z1=2 (P0=r=1), then K1=0.5 and the estimate stays 2.
    h = harness("kalman-filter", {"q": 0, "r": 1})
    h.feed_at(1, 2)
    h.feed_at(2, 2)
    h.run(3)
    assert [v for _, v in h.emits(0)] == [2.0, 2.0]
    node = h.engine.nodes["n"]
    assert node.variance == pytest.approx(0.5)  # (1-K1)*P1^- with K1=0.5


def test_kalman_constant_input_is_fixed_point(harness):
    h = harness("kalman-filter", {"q": 0.01, "r": 2})
    for i in range(20):
        h.feed_at(i + 1, 7.5)
    h.run(30)
    values = [v for _, v in h.emits(0)]
    assert all(v == 7.5 for v in values)


def test_kalman_malformed_measurement(harness):
    h = harness("kalman-filter", {"r": 1})
    h.feed_at(1, None)
    h.run(2)
    assert h.emits(1)[0][1]["kind"] == "malformed"


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.floats(0, 5), st.floats(0.01, 10))
def test_kalman_matches_recursion_oracle(zs, q, r):
    h = NodeHarness("kalman-filter", {"q": q, "r": r})
    for i, z in enumerate(zs):
        h.feed_at(i + 1, z)
    h.run(len(zs) + 1)
    got = [v for _, v in h.emits(0)]
    expected = kalman_oracle(zs, q, r)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_kalman_gain_in_unit_interval_and_variance_decreases():
    # with q=0 the error variance strictly decreases step over step
    h = NodeHarness("kalman-filter", {"q": 0, "r": 1})
    node = h.engine.nodes["n"]
    h.engine.start()
    variances = []
    for i in range(1, 31):
        h.engine.clock.run_until(i)
        h.engine.deliver_external("n", "t", 5.0 + (i % 3), ingress=0)
        variances.append(node.variance)
    for p_prev, p_next in zip(variances, variances[1:]):
        assert p_next < p_prev
        # reconstruct the gain that produced this step: K = 1 - P_next/P_prev
        gain = 1 - p_next / p_prev
        assert 0 < gain < 1
