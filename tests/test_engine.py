import copy
import json

import pytest
from hypothesis import given, strategies as st

from healflow.core.engine import Engine, GraphInvalid
from healflow.core.envelope import copy_json
from healflow.core.graph import dispatch_targets
from tests.conftest import build_graph, make_spec


def fan_out_graph():
    return build_graph(
        make_spec("src", "sensor", {"period": 100}, wires=[[("a", 0), ("b", 0), ("c", 0)]]),
        make_spec("a", "debug"),
        make_spec("b", "debug"),
        make_spec("c", "debug"),
    )


def test_dispatch_targets_in_declaration_order():
    graph = fan_out_graph()
    assert dispatch_targets(graph, "src", 0) == [("a", 0), ("b", 0), ("c", 0)]
    assert dispatch_targets(graph, "a", 0) == []
    with pytest.raises(KeyError):
        dispatch_targets(graph, "nope", 0)


def test_fan_out_delivers_to_each_ingress_in_order():
    engine = Engine(fan_out_graph(), instance="i")
    engine.start()
    engine.run_until(100)
    delivers = [e.node for e in engine.log if e.kind == "deliver"]
    assert delivers == ["a", "b", "c"]


def test_delivery_to_disabled_flow_group_is_dropped():
    graph = build_graph(
        make_spec("src", "sensor", {"period": 100}, flow="live", wires=[[("gone", 0)]]),
        make_spec("gone", "debug", flow="dark", enabled=False),
    )
    engine = Engine(graph, instance="i")
    engine.start()
    engine.run_until(100)
    kinds = [e.kind for e in engine.log if e.node == "gone"]
    assert kinds == ["drop"]


def test_periodic_sensor_emission_count():
    graph = build_graph(make_spec("s", "sensor", {"period": 60000}))
    engine = Engine(graph)
    engine.start()
    engine.run_until(300000)
    times = [e.time for e in engine.log.emits("s")]
    assert times == [60000, 120000, 180000, 240000, 300000]


def test_empty_graph_run_is_empty():
    engine = Engine(build_graph())
    engine.start()
    log = engine.run_until(1000)
    assert len(log) == 0


def test_same_seed_runs_are_byte_identical():
    def run_once():
        graph = build_graph(
            make_spec("s", "sensor", {"period": 500, "base": 10, "noiseAmp": 2},
                      wires=[[("k", 0)]]),
            make_spec("k", "kalman-filter", {"r": 1.0}, wires=[[("d", 0)], []]),
            make_spec("d", "debug"),
        )
        engine = Engine(graph, seed=42)
        engine.start()
        return engine.run_until(10000).to_csv()

    assert run_once() == run_once()


def test_different_seeds_differ():
    def run_once(seed):
        graph = build_graph(make_spec("s", "sensor", {"period": 500, "noiseAmp": 3}))
        engine = Engine(graph, seed=seed)
        engine.start()
        return engine.run_until(5000).to_csv()

    assert run_once(1) != run_once(2)


def test_invalid_graph_is_rejected_at_construction():
    graph = build_graph(make_spec("t", "threshold-check", {"low": 9, "high": 1}))
    with pytest.raises(GraphInvalid):
        Engine(graph)


def test_operator_exception_is_logged_not_fatal():
    graph = build_graph(
        make_spec("s", "sensor", {"period": 100}, wires=[[("x", 0)]]),
        make_spec("x", "extract", {"key": "v"}, wires=[[], []]),
    )
    engine = Engine(graph)
    # Sabotage the node to raise; the run must survive and log a fault.
    engine.nodes["x"].on_input = lambda env, ingress: 1 / 0
    engine.start()
    engine.run_until(250)
    faults = [e for e in engine.log if e.kind == "fault"]
    assert len(faults) == 2
    assert faults[0].value["kind"] == "operator-error"
    assert len(engine.log.emits("s")) == 2


def test_delivery_completeness_every_emit_has_deliver_or_drop_per_ingress():
    graph = build_graph(
        make_spec("src", "sensor", {"period": 100}, wires=[[("a", 0), ("b", 0)]]),
        make_spec("a", "debug", flow="off", enabled=False),
        make_spec("b", "debug"),
    )
    engine = Engine(graph, instance="i")
    engine.start()
    engine.run_until(1000)
    emits = len(engine.log.emits("src"))
    delivers = sum(1 for e in engine.log if e.kind == "deliver")
    drops = sum(1 for e in engine.log if e.kind == "drop")
    assert delivers == emits  # one enabled ingress
    assert drops == emits     # one disabled ingress


def test_log_times_are_non_decreasing():
    graph = build_graph(
        make_spec("s1", "sensor", {"period": 300}, wires=[[("d", 0)]]),
        make_spec("s2", "sensor", {"period": 700}, wires=[[("d", 0)]]),
        make_spec("d", "debug"),
    )
    engine = Engine(graph)
    engine.start()
    log = engine.run_until(5000)
    times = [e.time for e in log]
    assert times == sorted(times)


def test_fan_out_payload_copies_are_independent():
    graph = build_graph(
        make_spec("src", "sensor", {"period": 100}, wires=[[("a", 0), ("b", 0)]]),
        make_spec("a", "debug"),
        make_spec("b", "debug"),
    )
    engine = Engine(graph)
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
