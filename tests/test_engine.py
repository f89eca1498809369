import json
import logging
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from healflow.core.envelope import encode_json
from healflow.nodes import NODE_KINDS, Node, Param
from healflow.sim.world import RANK_INSTANCE_BASE, VirtualDevice, World
from tests.conftest import build_graph, make_engine, make_spec


def sensor_world(*periods, seed=0, **device):
    """A world whose periodic sensor s<i> publishes on topic t<i> every periods[i] ms."""
    return World(seed=seed, devices=[
        VirtualDevice(id=f"s{i}", kind="periodicSensor", topic=f"t{i}", period=period, **device)
        for i, period in enumerate(periods)])


def run(engine, t_end):
    """Start the engine and its world's devices, then drive the clock to t_end."""
    engine.start()
    engine.world.start_devices()
    return engine.run_until(t_end)


def fan_out_graph():
    return build_graph(
        make_spec("src", "mqtt-in", {"topic": "t0"}, wires=[[("a", 0), ("b", 0), ("c", 0)]]),
        make_spec("a", "debug"),
        make_spec("b", "debug"),
        make_spec("c", "debug"),
    )


def test_fan_out_delivers_to_each_ingress_in_order():
    engine = make_engine(fan_out_graph(), instance="i", world=World())
    engine.deliver_external("src", "t0", 1.0)
    delivers = [e.node for e in engine.log if e.kind == "deliver"]
    assert delivers == ["src", "a", "b", "c"]


def test_delivery_to_disabled_flow_group_is_dropped():
    graph = build_graph(
        make_spec("src", "mqtt-in", {"topic": "t0"}, flow="live", wires=[[("gone", 0)]]),
        make_spec("gone", "debug", flow="dark", enabled=False),
    )
    engine = make_engine(graph, instance="i", world=World())
    engine.deliver_external("src", "t0", 1.0)
    kinds = [e.kind for e in engine.log if e.node == "gone"]
    assert kinds == ["drop"]


def test_deliver_external_on_halted_engine_logs_one_drop_and_queues_nothing():
    engine = make_engine(fan_out_graph(), instance="i", world=World())
    seen = []
    engine.nodes["a"].on_input = lambda env, ingress: seen.append(env)
    engine.halt()
    engine.deliver_external("a", "t", {"v": 1}, ingress=0)
    [entry] = list(engine.log)
    assert (entry.kind, entry.node, entry.port, entry.value) == ("drop", "a", 0, {"v": 1})
    assert seen == []


def test_broker_delivery_to_disabled_flow_group_logs_drop_without_port():
    graph = build_graph(make_spec("in", "mqtt-in", {"topic": "t"}, flow="dark",
                                  enabled=False))
    engine = make_engine(graph, instance="i", world=World())
    seen = []
    engine.nodes["in"].on_external = lambda topic, payload: seen.append(payload)
    engine.deliver_external("in", "t", 7)
    [entry] = list(engine.log)
    assert (entry.kind, entry.node, entry.port, entry.value) == ("drop", "in", None, 7)
    assert seen == []


def test_emit_on_negative_egress_is_an_operator_error_and_delivers_nothing():
    graph = build_graph(make_spec("a", "rbe", wires=[[("b", 0)]]), make_spec("b", "debug"))
    engine = make_engine(graph, instance="i", world=World())
    node = engine.nodes["a"]
    node.on_input = lambda env, ingress: node.emit(-1, env.payload, env.topic)
    engine.deliver_external("a", "t", 1, ingress=0)
    assert [(e.kind, e.node) for e in engine.log] == [("deliver", "a"), ("fault", "a")]
    assert engine.log.entries[-1].value["kind"] == "operator-error"


def test_periodic_sensor_emission_count():
    graph = build_graph(make_spec("s", "mqtt-in", {"topic": "t0"}))
    engine = make_engine(graph, world=sensor_world(60000))
    run(engine, 300000)
    times = [e.time for e in engine.log.emits("s")]
    assert times == [60000, 120000, 180000, 240000, 300000]


def test_empty_graph_run_is_empty():
    engine = make_engine(build_graph(), world=World())
    engine.start()
    log = engine.run_until(1000)
    assert len(log) == 0


def test_same_seed_runs_are_byte_identical():
    def run_once():
        graph = build_graph(
            make_spec("s", "mqtt-in", {"topic": "t0"}, wires=[[("k", 0)]]),
            make_spec("k", "kalman-filter", {"r": 1.0}, wires=[[("d", 0)], []]),
            make_spec("d", "debug"),
        )
        engine = make_engine(graph, world=sensor_world(500, seed=42, base=10.0, noise_amp=2.0))
        return run(engine, 10000).to_csv()

    assert run_once() == run_once()


def test_different_seeds_differ():
    def run_once(seed):
        graph = build_graph(make_spec("s", "mqtt-in", {"topic": "t0"}))
        engine = make_engine(graph, world=sensor_world(500, seed=seed, noise_amp=3.0))
        return run(engine, 5000).to_csv()

    assert run_once(1) != run_once(2)


def test_engine_takes_its_seed_from_its_world():
    engine = make_engine(build_graph(make_spec("d", "debug")), instance="i", world=World(seed=7))
    assert engine.seed == 7
    assert engine.node_rng("d").random() == random.Random("7/i/d").random()


def test_engines_rank_in_the_order_they_joined_their_world():
    world = World()
    engines = [make_engine(build_graph(make_spec("d", "debug")), instance=name, world=world)
               for name in ("b", "a", "c")]
    ranks = [RANK_INSTANCE_BASE + i for i in range(3)]
    assert [e.rank_deliver for e in engines] == [3 * r for r in ranks]
    assert [e.rank_timer for e in engines] == [3 * r + 1 for r in ranks]
    assert [e.rank_cluster for e in engines] == [3 * r + 2 for r in ranks]


def test_restart_replaces_the_engine_in_place_and_replays_the_checkpoint_once():
    world = World()
    graph = build_graph(
        make_spec("ckpt", "checkpoint", {"timeToLive": 60000}, wires=[[("sink", 0)]]),
        make_spec("sink", "debug"))
    make_engine(build_graph(make_spec("d", "debug")), instance="a", world=world)
    old = make_engine(graph, instance="b", world=world)
    make_engine(build_graph(make_spec("d", "debug")), instance="c", world=world)
    old.start()
    old.deliver_external("ckpt", "t", 4.0, ingress=0)
    world.clock.run_until(100)

    new = old.restart()
    assert old.halted and not new.halted
    assert new.graph is old.graph and new.store is old.store and new.world is world
    assert (new.instance, new.address) == (old.instance, old.address)
    assert new.rank_deliver == old.rank_deliver
    assert list(world.engines) == ["a", "b", "c"] and world.engines["b"] is new
    world.clock.run_until(200)
    new.restart()
    # the live forward at t=0, then one replay at the first restart only
    assert [(e.time, e.value) for e in world.log.emits("ckpt")] == [(0, 4.0), (100, 4.0)]


def timer_fires(engine):
    return [(e.time, e.value) for e in engine.log if e.kind == "timer"]


@pytest.mark.parametrize("first, second, fires", [
    (100, 200, [(250, "t")]),   # moved later: deferred
    (100, 50, [(100, "t")]),    # to the same time: deferred
    (500, 50, [(100, "t")]),    # moved earlier: fires once, at the earlier time
    (100, 0, [(50, "t")]),      # to now
])
def test_node_timer_rearm_fires_once_at_the_last_time_set(first, second, fires):
    engine = make_engine(build_graph(make_spec("d", "debug")), world=World())
    spec = engine.graph.nodes[0]
    engine.set_node_timer(spec, "t", first)
    engine.run_until(50)
    engine.set_node_timer(spec, "t", second)
    engine.run_until(1000)
    assert timer_fires(engine) == fires


def test_clear_timer_after_a_deferred_rearm_never_fires():
    engine = make_engine(build_graph(make_spec("d", "debug")), world=World())
    spec = engine.graph.nodes[0]
    engine.set_node_timer(spec, "t", 100)
    engine.run_until(50)
    engine.set_node_timer(spec, "t", 100)
    engine.clear_node_timer(spec, "t")
    engine.run_until(1000)
    assert timer_fires(engine) == []
    engine.set_node_timer(spec, "t", 10)
    engine.run_until(2000)
    assert timer_fires(engine) == [(1010, "t")]


def test_an_operator_failing_in_a_loop_logs_one_traceback_and_every_fault(caplog):
    graph = build_graph(make_spec("x", "extract", {"key": "v"}, wires=[[], []]))
    engine = make_engine(graph, world=World())
    engine.nodes["x"].on_input = lambda env, ingress: 1 / 0
    with caplog.at_level(logging.DEBUG, logger="healflow.core.engine"):
        for _ in range(100):
            engine.deliver_external("x", "t", {"v": 1}, ingress=0)
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is not None
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG][-1] == (
        "operator x failed again, 100 failures: division by zero")
    faults = [e.value for e in engine.log if e.kind == "fault"]
    assert faults == [{"kind": "operator-error", "error": "division by zero"}] * 100


def test_a_received_envelope_cannot_be_changed():
    engine = make_engine(fan_out_graph(), world=World())
    seen = []
    engine.nodes["a"].on_input = lambda env, ingress: seen.append(env)
    engine.deliver_external("src", "t0", {"v": 1})
    [env] = seen
    with pytest.raises(AttributeError):
        env.payload = {"v": 2}
    assert env.payload == {"v": 1}


def test_operator_exception_is_logged_not_fatal():
    graph = build_graph(
        make_spec("s", "mqtt-in", {"topic": "t0"}, wires=[[("x", 0)]]),
        make_spec("x", "extract", {"key": "v"}, wires=[[], []]),
    )
    engine = make_engine(graph, world=sensor_world(100))
    # Sabotage the node to raise; the run must survive and log a fault.
    engine.nodes["x"].on_input = lambda env, ingress: 1 / 0
    run(engine, 250)
    faults = [e for e in engine.log if e.kind == "fault"]
    assert len(faults) == 2
    assert faults[0].value["kind"] == "operator-error"
    assert len(engine.log.emits("s")) == 2


class Faulty(Node):
    """Arms one timer at start, and raises in the hook its config names."""

    KIND = "faulty"
    CONFIG = {"raiseIn": Param("choice", choices=("on_start", "on_timer"))}

    def on_start(self):
        self.set_timer("t", 100)
        if self.cfg["raiseIn"] == "on_start":
            raise RuntimeError("boom")

    def on_timer(self, tag):
        if self.cfg["raiseIn"] == "on_timer":
            raise RuntimeError("boom")


@pytest.mark.parametrize("hook, at_ms", [("on_start", 0), ("on_timer", 100)])
def test_operator_error_in_on_start_or_on_timer_is_logged_once_and_the_run_goes_on(
        monkeypatch, hook, at_ms):
    monkeypatch.setitem(NODE_KINDS, Faulty.KIND, Faulty)
    graph = build_graph(
        make_spec("f", "faulty", {"raiseIn": hook}),
        make_spec("s", "mqtt-in", {"topic": "t0"}, wires=[[("d", 0)]]),
        make_spec("d", "debug"),
    )
    engine = make_engine(graph, world=sensor_world(100))
    run(engine, 250)
    assert [(e.time, e.node, e.value) for e in engine.log if e.kind == "fault"] == [
        (at_ms, "f", {"kind": "operator-error", "error": "boom"})]
    assert [e.time for e in engine.log if e.kind == "timer"] == [100]
    assert [e.time for e in engine.log.emits("s")] == [100, 200]


def test_delivery_completeness_every_emit_has_deliver_or_drop_per_ingress():
    graph = build_graph(
        make_spec("src", "mqtt-in", {"topic": "t0"}, wires=[[("a", 0), ("b", 0)]]),
        make_spec("a", "debug", flow="off", enabled=False),
        make_spec("b", "debug"),
    )
    engine = make_engine(graph, instance="i", world=sensor_world(100))
    run(engine, 1000)
    emits = len(engine.log.emits("src"))
    assert emits == 10
    delivers = sum(1 for e in engine.log if e.kind == "deliver" and e.node != "src")
    drops = sum(1 for e in engine.log if e.kind == "drop")
    assert delivers == emits  # one enabled ingress
    assert drops == emits     # one disabled ingress


def test_log_times_are_non_decreasing():
    graph = build_graph(
        make_spec("in0", "mqtt-in", {"topic": "t0"}, wires=[[("d", 0)]]),
        make_spec("in1", "mqtt-in", {"topic": "t1"}, wires=[[("d", 0)]]),
        make_spec("d", "debug"),
    )
    engine = make_engine(graph, world=sensor_world(300, 700))
    log = run(engine, 5000)
    assert len(log.emits("in0")) == 16 and len(log.emits("in1")) == 7
    times = [e.time for e in log]
    assert times == sorted(times)


def test_fan_out_payload_copies_are_independent():
    """A fan-out shares one payload, so a branch that mutates it is an operator
    error (the freeze mode delivers it frozen), and the other branch, the
    timeline and the sender all keep reading the original."""
    graph = build_graph(
        make_spec("src", "rbe", wires=[[("a", 0), ("b", 0)]]),
        make_spec("a", "debug"),
        make_spec("b", "debug"),
    )
    engine = make_engine(graph, world=World())
    seen = []
    engine.nodes["a"].on_input = lambda env, ingress: env.payload.update(tag=True)
    engine.nodes["b"].on_input = lambda env, ingress: seen.append(env.payload)
    engine.start()
    payload = {"v": 2}
    engine.emit_from(engine.graph.by_id["src"], 0, payload, "t")
    assert seen == [payload] == [{"v": 2}]
    assert [(e.kind, e.node, e.value) for e in engine.log] == [
        ("emit", "src", {"v": 2}), ("deliver", "a", {"v": 2}), ("deliver", "b", {"v": 2}),
        ("fault", "a", {"kind": "operator-error",
                        "error": "a delivered payload is shared; a node may not mutate it"})]


class Tally(Node):
    """Emits the list of every payload it received, appending to the list it last emitted."""

    KIND = "tally"

    def on_start(self):
        self.received = []

    def on_input(self, env, ingress):
        self.received.append(env.payload)
        self.emit(0, self.received)


def test_a_node_that_mutates_a_payload_it_emitted_fails_the_freeze_check(
        monkeypatch, payload_freeze):
    monkeypatch.setitem(NODE_KINDS, Tally.KIND, Tally)
    graph = build_graph(make_spec("t", "tally", wires=[[("d", 0)]]), make_spec("d", "debug"))
    engine = make_engine(graph, world=World())
    engine.start()
    engine.deliver_external("t", "", 1, ingress=0)
    payload_freeze.check()
    engine.deliver_external("t", "", 2, ingress=0)
    assert [e.value for e in engine.log.emits("t")] == [[1, 2], [1, 2]]
    with pytest.raises(AssertionError, match=re.escape("[('[1]', '[1,2]')]")):
        payload_freeze.check()
    engine.nodes["t"].received.pop()  # undo it, so this test's own teardown check passes


ENCODED_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30)


@given(ENCODED_VALUES)
@example({"\u00e9t\u00e9": [[float("nan"), float("-inf")], {"\u03bb": 1, "a": [[]]}]})
def test_encode_json_matches_compact_sorted_dumps(value):
    assert encode_json(value) == json.dumps(value, separators=(",", ":"), sort_keys=True)


def test_a_failed_encode_leaves_no_stale_circular_reference_marker():
    x = [set()]
    with pytest.raises(TypeError):
        encode_json(x)
    x[0] = 1
    assert encode_json(x) == "[1]"


def test_encode_json_rejects_a_list_that_contains_itself():
    x = []
    x.append(x)
    with pytest.raises(ValueError, match="Circular reference"):
        encode_json(x)
    x[0] = 1
    assert encode_json(x) == "[1]"
