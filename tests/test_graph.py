import json
import math

import pytest

from healflow.core.graph import Diagnostic, FlowParseError, parse_flow, validate_graph
from healflow.nodes import Node, Param
from tests.conftest import build_graph, make_spec

MINIMAL = json.dumps({
    "nodes": [
        {"id": "src", "type": "mqtt-in", "config": {"topic": "lab/t"},
         "wires": [[["sink", 0]]]},
        {"id": "sink", "type": "debug"},
    ]
})


def test_minimal_two_node_document():
    graph = parse_flow(MINIMAL)
    assert len(graph.nodes) == 2
    assert len(graph.wires()) == 1
    assert graph.by_id["src"].wires == [[("sink", 0)]]


def test_defaults_are_filled():
    graph = parse_flow(json.dumps({"nodes": [
        {"id": "comp", "type": "compensate", "config": {"interval": 1000}}]}))
    comp = graph.by_id["comp"]
    assert comp.config == {"interval": 1000, "historyMaxSize": 10, "strategy": "last",
                           "confidenceDecay": 0.9}
    assert comp.flow == "main"
    assert comp.enabled is True


def test_syntax_error_carries_position():
    with pytest.raises(FlowParseError) as err:
        parse_flow('{"nodes": [}')
    assert "line 1" in str(err.value)


def test_unknown_kind_rejected():
    # A list or object kind is unhashable, so it must be refused before the kind lookup.
    for kind in ("frobnicator", ["debug"], {"debug": 1}):
        doc = json.dumps({"nodes": [{"id": "x", "type": kind}]})
        with pytest.raises(FlowParseError, match="unknown node kind .* \\(node 'x'\\)"):
            parse_flow(doc)


def test_duplicate_id_rejected():
    doc = json.dumps({"nodes": [{"id": "x", "type": "debug"},
                                {"id": "x", "type": "debug"}]})
    with pytest.raises(FlowParseError, match="duplicate"):
        parse_flow(doc)


def test_dangling_wire_rejected():
    doc = json.dumps({"nodes": [
        {"id": "a", "type": "mqtt-in", "config": {"topic": "t"},
         "wires": [[["x9", 0]]]}]})
    with pytest.raises(FlowParseError, match="x9"):
        parse_flow(doc)


@pytest.mark.parametrize("field, value", [("enabled", "false"), ("enabled", 0),
                                          ("flow", None), ("flow", 7)])
def test_ill_typed_enabled_or_flow_rejected(field, value):
    doc = json.dumps({"nodes": [{"id": "x", "type": "debug", field: value}]})
    with pytest.raises(FlowParseError, match=f"{field} must be .* \\(node 'x'\\)"):
        parse_flow(doc)


@pytest.mark.parametrize("field, value, message", [
    ("config", "ab", "config must be an object"),
    ("config", [["a", 1]], "config must be an object"),
    ("config", None, "config must be an object"),
    ("wires", {"a": 1}, "wires must be a list"),
    ("wires", "ab", "wires must be a list"),
    ("wires", [5], "each port's wires must be a list"),
    ("wires", ["ab"], "each port's wires must be a list"),
    ("wires", [[[["x"], 0]]], "wire target must be a node id"),
    ("wires", [[["x", False]]], "ingress index must be a non-negative integer"),
    ("wires", [[["x", True]]], "ingress index must be a non-negative integer"),
], ids=["config-str", "config-pairs", "config-null", "wires-object", "wires-str",
        "port-int", "port-str", "target-list", "ingress-false", "ingress-true"])
def test_ill_typed_config_or_wires_rejected(field, value, message):
    doc = json.dumps({"nodes": [{"id": "x", "type": "debug", field: value}]})
    with pytest.raises(FlowParseError, match=f"{message}, got .* \\(node 'x'\\)"):
        parse_flow(doc)


@pytest.mark.parametrize("doc, message", [
    ([], 'flow document must be an object with a "nodes" list'),
    ({}, 'flow document must be an object with a "nodes" list'),
    ({"nodes": {"x": {}}}, 'flow document must be an object with a "nodes" list'),
    ({"nodes": [{"type": "debug"}]}, "every node needs a non-empty string id"),
    ({"nodes": [{"id": "", "type": "debug"}]}, "every node needs a non-empty string id"),
    ({"nodes": [{"id": 7, "type": "debug"}]}, "every node needs a non-empty string id"),
    ({"nodes": ["x"]}, "every node needs a non-empty string id"),
    ({"nodes": [{"id": "x", "type": "debug", "wires": [[["x"]]]}]},
     r"wire entries must be \[nodeId, ingressIdx\] pairs \(node 'x'\)"),
    ({"nodes": [{"id": "x", "type": "debug", "wires": [[["x", 0, 1]]]}]},
     r"wire entries must be \[nodeId, ingressIdx\] pairs \(node 'x'\)"),
    ({"nodes": [{"id": "x", "type": "debug", "wires": [["x"]]}]},
     r"wire entries must be \[nodeId, ingressIdx\] pairs \(node 'x'\)"),
], ids=["list", "no-nodes", "nodes-object", "id-missing", "id-empty", "id-int", "node-str",
        "wire-single", "wire-triple", "wire-str"])
def test_malformed_document_rejected(doc, message):
    with pytest.raises(FlowParseError, match=message):
        parse_flow(json.dumps(doc))


def test_scenario_a_style_document_shape(fixture_path):
    # heartbeat in parallel with check -> compensate -> checkpoint
    doc = json.dumps({"nodes": [
        {"id": "s", "type": "mqtt-in", "config": {"topic": "lab/dht"},
         "wires": [[["hb", 0], ["tc", 0]]]},
        {"id": "hb", "type": "heartbeat", "config": {"timeout": 90000}},
        {"id": "tc", "type": "threshold-check", "config": {"low": 0, "high": 50},
         "wires": [[["comp", 0]]]},
        {"id": "comp", "type": "compensate", "config": {"interval": 60000},
         "wires": [[["ckpt", 0]]]},
        {"id": "ckpt", "type": "checkpoint", "config": {"timeToLive": 300000}},
    ]})
    graph = parse_flow(doc)
    assert len(graph.nodes) == 5
    assert len(graph.wires()) == 4
    assert validate_graph(graph) == []


def test_valid_acyclic_graph_has_no_diagnostics():
    graph = parse_flow(MINIMAL)
    assert validate_graph(graph) == []


def test_cycle_produces_one_diagnostic():
    graph = build_graph(
        make_spec("a", "rbe", wires=[[("b", 0)]]),
        make_spec("b", "rbe", wires=[[("a", 0)]]),
    )
    diags = [d for d in validate_graph(graph) if "cycle" in d.message]
    assert len(diags) == 1
    assert diags[0].severity == "error"


def wired(*ids):
    """An rbe node for each id but the last, wired to the next id."""
    return [make_spec(a, "rbe", wires=[[(b, 0)]]) for a, b in zip(ids, ids[1:])]


def ring(*ids):
    return wired(*ids, ids[0])


def cycle_errors(graph):
    return [d for d in validate_graph(graph) if d.message.startswith("cycle:")]


def test_ring_diagnostic_names_the_loop():
    diags = cycle_errors(build_graph(*ring("a", "b", "c")))
    assert [str(d) for d in diags] == ["error: a: cycle: a -> b -> c -> a"]


def test_self_loop_is_a_cycle():
    assert [str(d) for d in cycle_errors(build_graph(*ring("a")))] == ["error: a: cycle: a -> a"]


def test_disjoint_cycles_give_one_cycle_error():
    assert len(cycle_errors(build_graph(*ring("a", "b"), *ring("c", "d", "e")))) == 1


def test_long_chain_and_ring_validate_without_recursion():
    ids = tuple(f"n{i}" for i in range(5000))
    assert validate_graph(build_graph(*wired(*ids), make_spec(ids[-1], "rbe"))) == []
    assert len(cycle_errors(build_graph(*ring(*ids)))) == 1


def broker_loop(pattern, topic):
    """mqtt-in on `pattern`, through an rbe, to mqtt-out on `topic`."""
    return build_graph(make_spec("in", "mqtt-in", {"topic": pattern}, wires=[[("mid", 0)]]),
                       make_spec("mid", "rbe", wires=[[("out", 0)]]),
                       make_spec("out", "mqtt-out", {"topic": topic}))


def test_a_publish_wired_back_to_its_own_subscriber_is_a_broker_loop():
    for pattern in ("lab/t", "lab/+"):
        assert validate_graph(broker_loop(pattern, "lab/t")) == [Diagnostic(
            "error", "out", "publishes 'lab/t' back to 'in', whose wires reach it: a broker loop")]


def test_a_publish_to_another_topic_or_from_an_unwired_subscriber_is_no_loop():
    assert validate_graph(broker_loop("lab/t", "lab/u")) == []
    assert validate_graph(broker_loop("lab/+", "alarm")) == []
    graph = build_graph(make_spec("in", "mqtt-in", {"topic": "t"}, wires=[[("sink", 0)]]),
                        make_spec("sink", "debug"),
                        make_spec("feed", "rbe", wires=[[("out", 0)]]),
                        make_spec("out", "mqtt-out", {"topic": "t"}))
    assert validate_graph(graph) == []


def test_threshold_low_above_high_is_flagged():
    graph = build_graph(make_spec("t", "threshold-check", {"low": 10, "high": 5}))
    diags = validate_graph(graph)
    assert any("low" in d.message and "high" in d.message for d in diags)


def test_unknown_config_key_is_flagged():
    graph = build_graph(make_spec("t", "debug", {"verbose": True}))
    diags = validate_graph(graph)
    assert any("unknown config key" in d.message for d in diags)


@pytest.mark.parametrize("param, config, message", [
    (Param("number"), {"f": "1"}, "config 'f' must be a number"),
    (Param("number"), {"f": True}, "config 'f' must be a number"),
    (Param("int"), {"f": 1.5}, "config 'f' must be an integer"),
    (Param("int"), {"f": True}, "config 'f' must be an integer"),
    (Param("str"), {"f": 5}, "config 'f' must be a string"),
    (Param("list"), {"f": "ab"}, "config 'f' must be a list"),
    (Param("choice", choices=("a", "b")), {"f": "c"}, "config 'f' must be one of ['a', 'b']"),
    (Param("int", minimum=0, exclusive_min=True), {"f": 0}, "config 'f' must be > 0"),
    (Param("int", minimum=1), {"f": 0}, "config 'f' must be >= 1"),
    (Param("number", maximum=1), {"f": 1.5}, "config 'f' must be <= 1"),
    (Param("number", minimum=0, maximum=1), {"f": math.nan}, "config 'f' must be finite"),
    (Param("number", minimum=0), {"f": math.inf}, "config 'f' must be finite"),
    (Param("number"), {"f": -math.inf}, "config 'f' must be finite"),
    (Param("int"), {}, "missing required config 'f'"),
], ids=["number-str", "number-bool", "int-float", "int-bool", "str-int", "list-str",
        "choice", "exclusive-minimum", "minimum", "maximum", "number-nan", "number-inf",
        "number-minus-inf", "missing"])
def test_config_value_rejections(param, config, message):
    kind = type("OneParam", (Node,), {"KIND": "one-param", "CONFIG": {"f": param}})
    assert kind.validate_config(config) == [message]


def test_wire_beyond_declared_egress_is_flagged():
    graph = build_graph(
        make_spec("r", "rbe", wires=[[], [("d", 0)]]),
        make_spec("d", "debug"),
    )
    diags = validate_graph(graph)
    assert any("egress 1" in d.message and d.locus == "r[1] -> d[0]" for d in diags)


def test_wire_beyond_declared_ingress_is_flagged():
    graph = build_graph(
        make_spec("r", "rbe", wires=[[("d", 3)]]),
        make_spec("d", "debug"),
    )
    diags = validate_graph(graph)
    assert any("ingress 3" in d.message and d.locus == "r[0] -> d[3]" for d in diags)


def test_balancing_egress_count_follows_config():
    graph = build_graph(
        make_spec("b", "balancing", {"outputs": 3},
                  wires=[[("d", 0)], [("d", 0)], [("d", 0)]]),
        make_spec("d", "debug"),
    )
    assert validate_graph(graph) == []


def test_balancing_with_ill_typed_outputs_gets_only_its_config_error():
    graph = build_graph(
        make_spec("b", "balancing", {"outputs": "x"}, wires=[[], [("d", 0)]]),
        make_spec("d", "debug"),
    )
    assert validate_graph(graph) == [
        Diagnostic("error", "b", "config 'outputs' must be an integer")]


def test_two_redundancy_nodes_give_one_warning():
    graph = build_graph(*(make_spec(n, "redundancy", {"electionTimeout": 1000})
                          for n in ("r1", "r2")))
    assert validate_graph(graph) == [
        Diagnostic("warning", "r2", "multiple redundancy nodes; the first one drives the cluster")]


def test_mixed_enabled_flags_in_group_warn():
    graph = build_graph(
        make_spec("a", "debug", flow="ingest", enabled=True),
        make_spec("b", "debug", flow="ingest", enabled=False),
    )
    diags = validate_graph(graph)
    assert any(d.severity == "warning" and d.locus == "ingest" for d in diags)


def test_fixture_flows_validate(fixture_path):
    for name in ("flow_a.json", "flow_b.json", "flow_c.json"):
        graph = parse_flow(fixture_path(name).read_text())
        errors = [d for d in validate_graph(graph) if d.severity == "error"]
        assert errors == [], f"{name}: {errors}"
