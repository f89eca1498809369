import itertools

from hypothesis import given, strategies as st

from healflow.core.engine import Engine
from healflow.nodes import vote
from healflow.persistence import Store
from healflow.sim import VirtualDevice, World
from tests.conftest import NodeHarness, build_graph, make_spec


# --- balancing ------------------------------------------------------------------

def route_sequence(config, n_messages, seed=0):
    h = NodeHarness("balancing", config, seed=seed)
    for i in range(n_messages):
        h.feed_at(i + 1, f"m{i + 1}")
    h.run(n_messages + 1)
    return [e.port for e in h.engine.log.emits("n")]


def wrr_cycle_oracle(weights, n_messages):
    """Cycle-expansion weighted round robin: index i repeats weights[i] times."""
    cycle = [i for i, w in enumerate(weights) for _ in range(w)]
    return list(itertools.islice(itertools.cycle(cycle), n_messages))


def test_round_robin_cycles_in_order():
    assert route_sequence({"outputs": 3}, 4) == [0, 1, 2, 0]


def test_weighted_round_robin_matches_cycle_oracle():
    assert route_sequence(
        {"outputs": 2, "strategy": "weightedRoundRobin", "weights": [2, 1]}, 3) == [0, 0, 1]
    for weights in ([1, 1], [3, 1], [2, 3, 1]):
        config = {"outputs": len(weights), "strategy": "weightedRoundRobin",
                  "weights": weights}
        assert route_sequence(config, 17) == wrr_cycle_oracle(weights, 17)


def test_random_strategy_is_seed_deterministic():
    config = {"outputs": 4, "strategy": "random", "seed": 42}
    first = route_sequence(config, 20)
    second = route_sequence(config, 20)
    assert first == second
    assert set(first) <= {0, 1, 2, 3}


def test_random_without_explicit_seed_uses_engine_seed():
    config = {"outputs": 4, "strategy": "random"}
    assert route_sequence(config, 20, seed=1) == route_sequence(config, 20, seed=1)
    assert route_sequence(config, 40, seed=1) != route_sequence(config, 40, seed=2)


@given(st.integers(2, 6), st.integers(0, 40))
def test_round_robin_fairness(n, m):
    ports = route_sequence({"outputs": n}, m)
    counts = [ports.count(i) for i in range(n)]
    assert max(counts) - min(counts) <= 1


@given(st.lists(st.integers(1, 4), min_size=2, max_size=4), st.integers(1, 5))
def test_weighted_counts_match_proportions_per_cycle(weights, cycles):
    config = {"outputs": len(weights), "strategy": "weightedRoundRobin",
              "weights": weights}
    ports = route_sequence(config, sum(weights) * cycles)
    for i, w in enumerate(weights):
        assert ports.count(i) == w * cycles


def test_weighted_round_robin_requires_matching_weights():
    from healflow.nodes import Balancing
    assert Balancing.validate_config(
        {"outputs": 3, "strategy": "weightedRoundRobin", "weights": [1, 2]}) != []
    assert Balancing.validate_config(
        {"outputs": 2, "strategy": "weightedRoundRobin", "weights": [1, 0]}) != []
    assert Balancing.validate_config(
        {"outputs": 2, "strategy": "weightedRoundRobin", "weights": None}) != []


# --- debounce -------------------------------------------------------------------

def test_debounce_first_passes_then_window_aggregates_last():
    h = NodeHarness("debounce", {"window": 10000, "strategy": "last"})
    for t, v in ((0, "a"), (2000, "b"), (4000, "c")):
        h.feed_at(t, v)
    h.run(30000)
    assert h.emits(0) == [(0, "a"), (10000, "c")]


def test_debounce_spaced_inputs_pass_through():
    h = NodeHarness("debounce", {"window": 10000})
    h.feed_at(0, "a")
    h.feed_at(20000, "b")
    h.run(40000)
    assert h.emits(0) == [(0, "a"), (20000, "b")]


def test_debounce_drop_extra():
    h = NodeHarness("debounce", {"window": 10000, "strategy": "drop-extra"})
    h.feed_at(0, "a")
    h.feed_at(2000, "b")
    h.run(30000)
    assert h.emits(0) == [(0, "a")]


def test_debounce_avg_aggregation():
    h = NodeHarness("debounce", {"window": 1000, "strategy": "avg"})
    for t, v in ((0, 10), (100, 20), (200, 40)):
        h.feed_at(t, v)
    h.run(5000)
    assert h.emits(0) == [(0, 10), (1000, 30.0)]


def test_debounce_avg_sums_left_to_right():
    h = NodeHarness("debounce", {"window": 1000, "strategy": "avg"})
    for t in range(11):
        h.feed_at(t, 0.1)
    h.run(1500)
    assert h.emits(0) == [(0, 0.1), (1000, 0.9999999999999999 / 10)]


def test_debounce_avg_rejects_non_numeric():
    h = NodeHarness("debounce", {"window": 1000, "strategy": "avg"})
    h.feed_at(0, "oops")
    h.run(2000)
    assert h.emits(0) == []
    assert h.emits(1)[0][1]["kind"] == "malformed"


def test_debounce_first_strategy_takes_first_extra():
    h = NodeHarness("debounce", {"window": 1000, "strategy": "first"})
    for t, v in ((0, "a"), (10, "b"), (20, "c")):
        h.feed_at(t, v)
    h.run(3000)
    assert h.emits(0) == [(0, "a"), (1000, "b")]


@given(st.lists(st.integers(0, 300), min_size=0, max_size=25), st.integers(10, 60))
def test_debounce_rate_bound(times, window):
    h = NodeHarness("debounce", {"window": window, "strategy": "last"})
    for i, t in enumerate(sorted(times)):
        h.feed_at(t, i)
    h.run(500)
    emit_times = [t for t, _ in h.emits(0)]
    span = 200
    for start in range(0, 500 - span, 13):
        inside = [t for t in emit_times if start <= t < start + span]
        assert len(inside) <= span // window + 2  # ceil(W/window) + 1


# --- action-audit ----------------------------------------------------------------

def test_audit_ack_in_time_confirms():
    h = NodeHarness("action-audit", {"timeout": 30000})
    h.feed_at(0, "open-door", topic="cmd/door", ingress=0, corr="req-1")
    h.feed_at(5000, "door-open", topic="ack/door", ingress=1)
    h.run(60000)
    assert h.emits(0) == [(5000, "door-open")]
    assert h.emits(1) == []
    [entry] = h.engine.log.emits("n")
    assert entry.port == 0


def test_audit_timeout_fails():
    h = NodeHarness("action-audit", {"timeout": 30000})
    h.feed_at(0, "open-door", ingress=0)
    h.run(60000)
    assert h.emits(0) == []
    assert h.emits(1) == [(30000, {"kind": "timeout"})]


def test_audit_late_ack_after_failure_is_ignored():
    h = NodeHarness("action-audit", {"timeout": 30000})
    h.feed_at(0, "open-door", ingress=0)
    h.feed_at(31000, "door-open", ingress=1)
    h.run(60000)
    assert h.emits(0) == []
    assert len(h.emits(1)) == 1


def test_audit_ack_without_trigger_is_ignored():
    h = NodeHarness("action-audit", {"timeout": 30000})
    h.feed_at(100, "spurious", ingress=1)
    h.run(60000)
    assert h.emits(0) == [] and h.emits(1) == []


def test_audit_topic_predicate_filters_acks():
    h = NodeHarness("action-audit", {"timeout": 30000, "match": "ack/+"})
    h.feed_at(0, "trigger", ingress=0)
    h.feed_at(1000, "noise", topic="other/zone", ingress=1)
    h.feed_at(2000, "good", topic="ack/zone", ingress=1)
    h.run(60000)
    assert h.emits(0) == [(2000, "good")]


# --- replication-voter ----------------------------------------------------------
# Oracle: brute-force majority over the multiset.

def majority_oracle(values):
    for candidate in values:
        if sum(1 for v in values if v == candidate) * 2 > len(values):
            return candidate
    return None


def test_voter_two_of_three_majority():
    h = NodeHarness("replication-voter", {"expected": 3, "window": 1000})
    for i, v in enumerate((1, 1, 0)):
        h.feed_at(i + 1, v)
    h.run(5000)
    assert h.emits(0) == [(3, 1)]


def test_voter_tie_is_no_consensus():
    h = NodeHarness("replication-voter", {"expected": 2, "window": 1000})
    h.feed_at(1, 1)
    h.feed_at(2, 0)
    h.run(5000)
    assert h.emits(0) == []
    [(_, out)] = h.emits(1)
    assert out["tally"] == {"1": 1, "0": 1}


def test_voter_window_close_decides_partial_round():
    h = NodeHarness("replication-voter", {"expected": 3, "window": 1000})
    h.feed_at(0, "x")
    h.feed_at(100, "x")
    h.run(5000)
    assert h.emits(0) == [(1000, "x")]


def test_voter_unanimity():
    h = NodeHarness("replication-voter", {"expected": 2, "quorum": "unanimity",
                                          "window": 1000})
    h.feed_at(0, 5)
    h.feed_at(10, 5)
    h.run(2000)
    assert h.emits(0) == [(10, 5)]

    h2 = NodeHarness("replication-voter", {"expected": 2, "quorum": "unanimity",
                                           "window": 1000})
    h2.feed_at(0, 5)
    h2.feed_at(10, 6)
    h2.run(2000)
    assert h2.emits(1) != []


def test_voter_all_binary_triples_match_majority_bit():
    for bits in itertools.product((0, 1), repeat=3):
        h = NodeHarness("replication-voter", {"expected": 3, "window": 1000})
        for i, b in enumerate(bits):
            h.feed_at(i + 1, b)
        h.run(5000)
        expected = majority_oracle(list(bits))
        assert h.emits(0) == [(3, expected)]  # 2-of-3 always exists


def test_voter_equals_brute_force_on_all_binary_multisets_up_to_5():
    for n in range(1, 6):
        for bits in itertools.product((0, 1), repeat=n):
            h = NodeHarness("replication-voter", {"expected": max(n, 2), "window": 1000})
            for i, b in enumerate(bits):
                h.feed_at(i + 1, b)
            h.run(5000)
            expected = majority_oracle(list(bits))
            if expected is None:
                assert h.emits(0) == []
                assert len(h.emits(1)) == 1
            else:
                values = [v for _, v in h.emits(0)]
                assert values == [expected]


def test_vote_helper_empty_is_no_consensus():
    winner, tally = vote([])
    assert tally == {}
    tie, _ = vote([0, 1])
    assert winner is tie  # the one no-consensus marker, never a payload


def test_vote_deep_equality_on_records():
    winner, _ = vote([{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 9}])
    assert winner == {"a": 1, "b": 2}


# --- flow-control ----------------------------------------------------------------

def flow_engine():
    """ctl controls the ingest group, whose sink a 100 ms world sensor feeds."""
    graph = build_graph(
        make_spec("ctl", "flow-control"),
        make_spec("src", "mqtt-in", {"topic": "t"}, wires=[[("sink", 0)]]),
        make_spec("sink", "debug", flow="ingest"),
    )
    world = World(devices=[VirtualDevice(id="dev", kind="periodicSensor", topic="t",
                                         period=100)])
    engine = Engine(graph, instance="i", address="127.0.0.1", store=Store(), world=world)
    engine.start()
    world.start_devices()
    return engine


def test_flow_control_disable_drops_downstream():
    engine = flow_engine()
    engine.deliver_external("ctl", "", {"action": "disable", "flow": "ingest"}, ingress=0)
    engine.run_until(250)
    drops = [e for e in engine.log if e.kind == "drop"]
    assert [(e.time, e.node) for e in drops] == [(100, "sink"), (200, "sink")]
    assert engine.flow_enabled["ingest"] is False
    acks = engine.log.emits("ctl")
    assert acks[0].port == 0
    assert acks[0].value == {"action": "disable", "flow": "ingest"}


def test_flow_control_enable_is_idempotent():
    engine = flow_engine()
    engine.deliver_external("ctl", "", {"action": "enable", "flow": "ingest"}, ingress=0)
    engine.deliver_external("ctl", "", {"action": "enable", "flow": "ingest"}, ingress=0)
    acks = engine.log.emits("ctl")
    assert [e.port for e in acks] == [0, 0]
    assert engine.flow_enabled["ingest"] is True


def test_flow_control_unknown_group_errors():
    engine = flow_engine()
    engine.deliver_external("ctl", "", {"action": "disable", "flow": "nope"}, ingress=0)
    [entry] = engine.log.emits("ctl")
    assert entry.port == 1
    assert entry.value["kind"] == "unknown-flow"
    assert "nope" not in engine.flow_enabled


def test_flow_control_malformed_command():
    engine = flow_engine()
    engine.deliver_external("ctl", "", "disable ingest", ingress=0)
    [entry] = engine.log.emits("ctl")
    assert entry.port == 1
    assert entry.value["kind"] == "malformed"
