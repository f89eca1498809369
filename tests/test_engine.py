import copy
import json
import random

import pytest
from hypothesis import example, given, strategies as st

from healflow.core.engine import Engine, GraphInvalid
from healflow.core.envelope import copy_json, encode_json
from healflow.persistence import Store
from healflow.sim import VirtualDevice, World
from healflow.sim.world import RANK_INSTANCE_BASE
from tests.conftest import build_graph, make_spec


def sensor_world(*periods, seed=0, **device):
    """A world whose periodic sensor s<i> publishes on topic t<i> every periods[i] ms."""
    return World(seed=seed, devices=[
        VirtualDevice(id=f"s{i}", kind="periodicSensor", topic=f"t{i}", period=period, **device)
        for i, period in enumerate(periods)])


def make_engine(graph, *, world, instance="node"):
    """An engine with a memory store that joins `world` as `instance`."""
    return Engine(graph, instance=instance, address="127.0.0.1", store=Store(), world=world)


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
    node.on_input = lambda env, ingress: node.emit(-1, env.payload, env.topic, env.corr)
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
    assert [e.rank_deliver for e in engines] == [2 * r for r in ranks]
    assert [e.rank_timer for e in engines] == [2 * r + 1 for r in ranks]


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


def test_invalid_graph_is_rejected_at_construction():
    graph = build_graph(make_spec("t", "threshold-check", {"low": 9, "high": 1}))
    with pytest.raises(GraphInvalid):
        make_engine(graph, world=World())


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
    graph = build_graph(
        make_spec("src", "rbe", wires=[[("a", 0), ("b", 0)]]),
        make_spec("a", "debug"),
        make_spec("b", "debug"),
    )
    engine = make_engine(graph, world=World())
    seen = []
    engine.nodes["a"].on_input = lambda env, ingress: env.payload.update(tag=True)
    engine.nodes["b"].on_input = lambda env, ingress: seen.append(dict(env.payload))
    engine.start()
    engine.deliver_external("a", "t", {"v": 1}, ingress=0)
    engine.deliver_external("b", "t", {"v": 1}, ingress=0)
    src = engine.graph.by_id["src"]
    engine.emit_from(src, 0, {"v": 2}, "t")
    assert seen[-1] == {"v": 2}


def test_copy_json_keeps_key_order_nested_lists_bool_and_none():
    value = {"z": [1, [2.5, {"k": None}]], "a": True, "m": False, "n": None, "s": "x"}
    copied = copy_json(value)
    assert copied == value
    assert list(copied) == ["z", "a", "m", "n", "s"]
    assert copied["a"] is True and copied["m"] is False and copied["n"] is None
    assert copied["z"] is not value["z"]
    assert copied["z"][1] is not value["z"][1]
    assert copied["z"][1][1] is not value["z"][1][1]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20)


def _containers(value):
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from _containers(v)
    elif isinstance(value, list):
        yield value
        for v in value:
            yield from _containers(v)


@given(JSON_VALUES)
def test_copy_json_matches_deepcopy_and_shares_no_container(value):
    copied = copy_json(value)
    assert json.dumps(copied) == json.dumps(copy.deepcopy(value))
    originals = {id(c) for c in _containers(value)}
    assert not originals & {id(c) for c in _containers(copied)}


ENCODED_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30)


@given(ENCODED_VALUES)
@example({"\u00e9t\u00e9": [[float("nan"), float("-inf")], {"\u03bb": 1, "a": [[]]}]})
def test_encode_json_matches_compact_sorted_dumps(value):
    assert encode_json(value) == json.dumps(value, separators=(",", ":"), sort_keys=True)
