import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from healflow.cli import main
from healflow.core import graph
from healflow.core.timeline import TimelineLog
from healflow.persistence import Store

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_run_writes_timeline_csv(tmp_path, fixture_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["run", "--flow", str(fixture_path("flow_a.json")),
                 "--scenario", str(fixture_path("scenario_a.json")),
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "time_ms,instance,event,node,port,topic,value"
    assert "compensate" not in text.splitlines()[0]
    assert "wrote" in capsys.readouterr().out


def test_run_twice_is_byte_identical(tmp_path, fixture_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert main(["run", "--flow", str(fixture_path("flow_a.json")),
                     "--scenario", str(fixture_path("scenario_a.json")),
                     "--seed", "42", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_bad_flow_file_exits_2(tmp_path, fixture_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": "x", "type": "nope"}]}')
    code = main(["run", "--flow", str(bad),
                 "--scenario", str(fixture_path("scenario_a.json"))])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_missing_file_exits_2(fixture_path, capsys):
    code = main(["run", "--flow", "/does/not/exist.json",
                 "--scenario", str(fixture_path("scenario_a.json"))])
    assert code == 2


def test_run_invalid_config_exits_2(tmp_path, fixture_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [
        {"id": "t", "type": "threshold-check", "config": {"low": 9, "high": 1}}]}))
    code = main(["run", "--flow", str(bad),
                 "--scenario", str(fixture_path("scenario_a.json"))])
    assert code == 2
    err = capsys.readouterr().err
    assert "low" in err


def test_run_validates_each_flow_once_across_a_restart(tmp_path, fixture_path, monkeypatch):
    calls = []
    original = graph.validate_graph

    def counting(g):
        calls.append(g)
        return original(g)

    # Wrap the name wherever a healflow module binds it, so no caller escapes the count.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "healflow" and getattr(module, "validate_graph", None) is original:
            monkeypatch.setattr(module, "validate_graph", counting)
    doc = json.loads(fixture_path("scenario_c_loss.json").read_text())
    crash = doc["events"][0]
    assert (crash["kind"], crash["target"]) == ("instance_crash", "red-b")
    doc["events"].append({"at_ms": crash["at_ms"] + 1000, "kind": "instance_restart",
                          "target": "red-b"})
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    flow = str(fixture_path("flow_c.json"))
    code = main(["run", "--flow", flow, "--flow", flow, "--scenario", str(scenario),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 0
    assert len(calls) == 2


def test_validate_ok_and_failing(tmp_path, fixture_path, capsys):
    assert main(["validate", "--flow", str(fixture_path("flow_b.json"))]) == 0
    out = capsys.readouterr().out
    assert "ok" in out

    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps({"nodes": [
        {"id": "a", "type": "rbe", "wires": [[["b", 0]]]},
        {"id": "b", "type": "rbe", "wires": [[["a", 0]]]}]}))
    assert main(["validate", "--flow", str(bad)]) == 2
    assert "cycle" in capsys.readouterr().out


def test_validate_names_an_unreadable_file_once_and_goes_on(tmp_path, fixture_path, capsys):
    missing, not_utf8 = tmp_path / "missing.json", tmp_path / "latin1.json"
    not_utf8.write_bytes(b'\xff{"nodes": []}')
    flow_b = str(fixture_path("flow_b.json"))
    assert main(["validate", "--flow", str(missing), "--flow", str(not_utf8),
                 "--flow", flow_b]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{missing}: cannot read: No such file or directory"
    assert out[1].startswith(f"{not_utf8}: cannot read: 'utf-8' codec can't decode byte 0xff")
    assert out[1].count(str(not_utf8)) == 1
    assert out[2:] == [f"{flow_b}: ok (7 nodes, 7 wires)"]


# Deeper than any JSON decoder's recursion limit.
TOO_DEEP = "[" * 100_000


def test_validate_flow_nested_too_deep_exits_2(tmp_path, capsys):
    flow = tmp_path / "deep.json"
    flow.write_text(TOO_DEEP)
    assert main(["validate", "--flow", str(flow)]) == 2
    assert capsys.readouterr().out == f"{flow}: flow document nests too deep\n"


# More digits than the interpreter converts from text to an int by default.
TOO_LONG_INT = "9" * 5001


def test_validate_flow_with_an_integer_too_long_exits_2(tmp_path, capsys):
    flow = tmp_path / "long.json"
    flow.write_text('{"nodes": [{"id": "x", "type": "debug", "config": {"n": %s}}]}'
                    % TOO_LONG_INT)
    assert main(["validate", "--flow", str(flow)]) == 2
    assert capsys.readouterr().out == (
        f"{flow}: flow document holds an integer with too many digits\n")


@pytest.mark.parametrize("kind, config, names", [
    ("compensate", '{"interval": 100, "confidenceDecay": NaN}', ["confidenceDecay"]),
    ("threshold-check", '{"low": NaN, "high": 5}', ["low"]),
    ("kalman-filter", '{"r": Infinity, "q": NaN}', ["q", "r"]),
    ("readings-watcher", '{"maxDelta": -Infinity}', ["maxDelta"]),
], ids=["compensate-nan", "threshold-nan", "kalman-inf-nan", "watcher-minus-inf"])
def test_validate_flow_with_a_non_finite_config_number_exits_2(kind, config, names, tmp_path,
                                                               capsys):
    flow = tmp_path / "nan.json"
    flow.write_text('{"nodes": [{"id": "x", "type": "%s", "config": %s}]}' % (kind, config))
    assert main(["validate", "--flow", str(flow)]) == 2
    assert capsys.readouterr().out == "".join(
        f"{flow}: error: x: config {name!r} must be finite\n" for name in names)


def test_validate_two_cycle_flow_exits_2(tmp_path, capsys):
    bad = tmp_path / "two-cycles.json"
    bad.write_text(json.dumps({"nodes": [
        {"id": a, "type": "rbe", "wires": [[[b, 0]]]}
        for a, b in (("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"))]}))
    assert main(["validate", "--flow", str(bad)]) == 2
    assert capsys.readouterr().out.count("cycle:") == 1


def test_a_flow_that_publishes_back_to_its_own_subscriber_exits_2(tmp_path, capsys):
    """Run would republish each reading within its ms without end; validate refuses it."""
    flow, scenario = tmp_path / "loop.json", tmp_path / "scenario.json"
    flow.write_text(json.dumps({"nodes": [
        {"id": "in", "type": "mqtt-in", "config": {"topic": "t"}, "wires": [[["out", 0]]]},
        {"id": "out", "type": "mqtt-out", "config": {"topic": "t"}}]}))
    scenario.write_text(json.dumps({"seed": 1, "duration_ms": 5000, "world": {"devices": [
        {"id": "s", "kind": "periodicSensor", "topic": "t", "period_ms": 1000}]}}))
    message = "error: out: publishes 't' back to 'in', whose wires reach it: a broker loop"
    assert main(["validate", "--flow", str(flow)]) == 2
    assert capsys.readouterr().out == f"{flow}: {message}\n"
    assert main(["run", "--flow", str(flow), "--scenario", str(scenario)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("config", "ab"), ("wires", [5]), ("type", ["x"])],
                         ids=["config-str", "port-int", "kind-list"])
def test_ill_typed_config_or_wires_exits_2_naming_the_node(field, value, tmp_path, fixture_path,
                                                          capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [{"id": "x", "type": "debug", field: value}]}))
    assert main(["validate", "--flow", str(bad)]) == 2
    assert "(node 'x')" in capsys.readouterr().out
    assert main(["run", "--flow", str(bad),
                 "--scenario", str(fixture_path("scenario_a.json"))]) == 2
    assert "(node 'x')" in capsys.readouterr().err


def test_marble_format_renders_rows(tmp_path, fixture_path, capsys):
    code = main(["run", "--flow", str(fixture_path("flow_b.json")),
                 "--scenario", str(fixture_path("scenario_b.json")),
                 "--format", "marble", "--bucket-ms", "1000",
                 "--nodes", "nfc-in", "--nodes", "timing", "--nodes", "post-v1",
                 "--nodes", "post-v2", "--nodes", "post-v3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "timing:tooFast" in out
    assert "post-v3" in out


def test_marble_rows_of_a_device_come_from_its_emits(fixture_path, capsys):
    code = main(["run", "--flow", str(fixture_path("flow_a.json")),
                 "--scenario", str(fixture_path("scenario_a.json")),
                 "--format", "marble", "--nodes", "dht-1"])
    assert code == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.startswith("# marble bucket_ms=")
    label, glyphs = row.split(" |")
    assert label == "dht-1:0"  # no flow node: the row is labelled by its egress index
    assert "*" in glyphs


def test_marble_node_filter_takes_an_id_holding_a_comma_whole(fixture_path, capsys):
    code = main(["run", "--flow", str(fixture_path("flow_names.json")),
                 "--scenario", str(fixture_path("scenario_names.json")),
                 "--format", "marble", "--nodes", "in,1"])
    assert code == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split(" |")[0] == "in,1"
    assert "*" in row


def test_marble_of_the_names_pair_writes_each_egress_on_one_row(fixture_path, capsys):
    code = main(["run", "--flow", str(fixture_path("flow_names.json")),
                 "--scenario", str(fixture_path("scenario_names.json")), "--format", "marble"])
    assert code == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    header, *rows = out.split("\n")[:-1]
    assert header.startswith("# marble ")
    assert [row.split(" |")[0].rstrip() for row in rows] == [
        '"dht,\\"\\r\\n:0"', "in,1", '"temp\\r:value"', '"check\\n:reading"',
        '"post\\":posted"', '"post\\":error"']
    assert all(row.endswith("|") for row in rows)


def test_marble_unknown_node_exits_2(fixture_path, capsys):
    code = main(["run", "--flow", str(fixture_path("flow_b.json")),
                 "--scenario", str(fixture_path("scenario_b.json")),
                 "--format", "marble", "--nodes", "ghost"])
    assert code == 2


def test_marble_empty_timeline_exits_0(tmp_path, capsys):
    flow = tmp_path / "f.json"
    flow.write_text(json.dumps({"nodes": [{"id": "d", "type": "debug"}]}))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"seed": 1, "duration_ms": 1000, "events": []}))
    code = main(["run", "--flow", str(flow), "--scenario", str(scenario),
                 "--format", "marble"])
    assert code == 0
    assert "no emissions" in capsys.readouterr().out


def test_marble_bucket_giving_too_many_columns_exits_2(tmp_path, capsys):
    flow = tmp_path / "f.json"
    flow.write_text(json.dumps({"nodes": [{"id": "d", "type": "debug"}]}))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"seed": 1, "duration_ms": 10**10 + 1, "world": {"devices": [
        {"id": "nfc", "kind": "nfcReader", "topic": "t", "reads": [{"at_ms": 10**10}]}]}}))
    code = main(["run", "--flow", str(flow), "--scenario", str(scenario),
                 "--format", "marble", "--bucket-ms", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bucket_ms 1 gives 10000000001 columns, over 100000\n"
    assert captured.out == ""


@pytest.mark.parametrize("bucket", ["0", "-5"])
def test_marble_bucket_below_1_exits_2(fixture_path, capsys, bucket):
    code = main(["run", "--flow", str(fixture_path("flow_a.json")),
                 "--scenario", str(fixture_path("scenario_a.json")),
                 "--format", "marble", "--bucket-ms", bucket])
    assert code == 2
    captured = capsys.readouterr()
    assert f"--bucket-ms must be at least 1, got {bucket}" in captured.err
    assert captured.out == ""


SENSOR = {"id": "s", "topic": "t", "period_ms": 1000}
MALFORMED_SCENARIOS = {
    "events-object": {"events": {"at_ms": 0}},
    "event-not-object": {"events": [1]},
    "device-not-object": {"world": {"devices": [1]}},
    "period-not-int": {"world": {"devices": [dict(SENSOR, period_ms="x")]}},
    "params-list": {"world": {"devices": [SENSOR]},
                    "events": [{"at_ms": 0, "kind": "value_noise", "target": "s",
                                "params": [1]}]},
    "world-not-object": {"world": [1]},
    "reads-not-objects": {"world": {"devices": [dict(SENSOR, reads=[5])]}},
    "value-model-list": {"world": {"devices": [dict(SENSOR, valueModel=[1])]}},
    "base-not-number": {"world": {"devices": [dict(SENSOR, valueModel={"base": "x"})]}},
    "base-field-not-number": {
        "world": {"devices": [dict(SENSOR, valueModel={"base": {"t": [1]}})]}},
    "base-boolean": {"world": {"devices": [dict(SENSOR, valueModel={"base": True})]}},
    "base-too-large-for-a-float": {
        "world": {"devices": [dict(SENSOR, valueModel={"base": 10**400})]}},
    "noise-negative": {"world": {"devices": [dict(SENSOR, valueModel={"noiseAmp": -1})]}},
    "noise-field-not-number": {
        "world": {"devices": [dict(SENSOR, valueModel={"noiseAmp": {"t": "x"}})]}},
    "noise-object-base-number": {
        "world": {"devices": [dict(SENSOR, valueModel={"base": 1.0, "noiseAmp": {"t": 1}})]}},
    "noise-field-not-in-base": {"world": {"devices": [
        dict(SENSOR, valueModel={"base": {"t": 1.0}, "noiseAmp": {"u": 1}})]}},
    "service-without-id": {"world": {"services": [{"port": 80}]}},
    "service-port-not-int": {"world": {"services": [{"id": "v", "port": "http"}]}},
    "service-host-int": {"world": {"services": [{"id": "v", "host": 5}]}},
    "service-host-null": {"world": {"services": [{"id": "u", "host": "h"},
                                                 {"id": "v", "host": None}]}},
    "instance-without-address": {"world": {"instances": [{"name": "a"}]}},
    "instance-address-out-of-range": {
        "world": {"instances": [{"name": "a", "address": "10.0.0.300"}]}},
    "instance-named-world": {
        "world": {"instances": [{"name": "world", "address": "10.0.0.1"}]}},
    "amp-not-number": {"world": {"devices": [SENSOR]},
                       "events": [{"at_ms": 0, "kind": "value_noise", "target": "s",
                                   "params": {"amp": "x"}}]},
    "amp-negative": {"world": {"devices": [SENSOR]},
                     "events": [{"at_ms": 0, "kind": "value_noise", "target": "s",
                                 "params": {"amp": -1}}]},
    "amp-too-large-for-a-float": {"world": {"devices": [SENSOR]},
                                  "events": [{"at_ms": 0, "kind": "value_noise", "target": "s",
                                              "params": {"amp": 10**400}}]},
    "amp-object": {"world": {"devices": [SENSOR]},
                   "events": [{"at_ms": 0, "kind": "value_noise", "target": "s",
                               "params": {"amp": {}}}]},
    "period-float": {"world": {"devices": [dict(SENSOR, period_ms=2.5)]}},
    "period-string": {"world": {"devices": [dict(SENSOR, period_ms="100")]}},
    "duration-boolean": {"duration_ms": True},
    "device-kind-unknown": {"world": {"devices": [dict(SENSOR, kind="camera")]}},
    "sensor-without-period": {"world": {"devices": [{"id": "s", "topic": "t"}]}},
    "world-empty-list": {"world": []},
    "params-zero": {"world": {"devices": [SENSOR]},
                    "events": [{"at_ms": 0, "kind": "value_noise", "target": "s",
                                "params": 0}]},
    "value-model-empty-string": {"world": {"devices": [dict(SENSOR, valueModel="")]}},
    "kind-list": {"world": {"devices": [SENSOR]},
                  "events": [{"at_ms": 0, "kind": ["device_offline"], "target": "s"}]},
    # json.dumps cannot write this integer either, so the entry is the document's text.
    "duration-too-many-digits": '{"seed": 1, "duration_ms": %s}' % TOO_LONG_INT,
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_SCENARIOS))
def test_run_malformed_scenario_exits_2(tmp_path, fixture_path, capsys, shape):
    scenario = tmp_path / "s.json"
    doc = MALFORMED_SCENARIOS[shape]
    scenario.write_text(doc if isinstance(doc, str) else
                        json.dumps({"seed": 1, "duration_ms": 1000, **doc}))
    code = main(["run", "--flow", str(fixture_path("flow_c.json")),
                 "--scenario", str(scenario)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario}: ")


@pytest.mark.parametrize("text, message", [
    ("not json", "scenario syntax error: "),
    ("[1]", "scenario document must be a JSON object"),
], ids=["not-json", "not-object"])
def test_run_scenario_that_is_not_a_json_object_exits_2(tmp_path, fixture_path, capsys, text,
                                                        message):
    scenario = tmp_path / "s.json"
    scenario.write_text(text)
    code = main(["run", "--flow", str(fixture_path("flow_a.json")), "--scenario", str(scenario)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario}: {message}")


def test_run_scenario_nested_too_deep_exits_2(tmp_path, fixture_path, capsys):
    scenario = tmp_path / "deep.json"
    scenario.write_text(TOO_DEEP)
    code = main(["run", "--flow", str(fixture_path("flow_a.json")), "--scenario", str(scenario)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {scenario}: scenario document nests too deep\n"


@pytest.mark.parametrize("depth", [500, 900])
def test_run_and_report_a_stuck_value_nested_deep(tmp_path, fixture_path, capsys, depth):
    value = 1
    for _ in range(depth):
        value = [value]
    scenario = json.loads(fixture_path("scenario_a.json").read_text())
    scenario["events"].insert(0, {"at_ms": 300000, "kind": "stuck_value", "target": "dht-1",
                                  "params": {"value": value}})
    path, out = tmp_path / "deep.json", tmp_path / "t.csv"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--flow", str(fixture_path("flow_a.json")), "--scenario", str(path),
                 "--out", str(out)]) == 0
    assert "[" * depth + "1" + "]" * depth in out.read_text()
    assert main(["report", "--timeline", str(out), "--metric", "loss"]) == 0


def test_run_out_into_a_missing_directory_exits_3(tmp_path, fixture_path, capsys):
    out = tmp_path / "missing" / "t.csv"
    code = main(["run", "--flow", str(fixture_path("flow_a.json")),
                 "--scenario", str(fixture_path("scenario_a.json")), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_run_store_dir_naming_a_file_exits_3(tmp_path, fixture_path, capsys):
    store_dir = tmp_path / "file"
    store_dir.write_text("")
    code = main(["run", "--flow", str(fixture_path("flow_a.json")),
                 "--scenario", str(fixture_path("scenario_a.json")),
                 "--store-dir", str(store_dir)])
    assert code == 3
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_run_rejects_an_instance_name_that_leaves_the_store_dir(tmp_path, fixture_path, capsys):
    # flow_a checkpoints within 120 s, into run/escaped.store if the name were taken.
    world = json.loads(fixture_path("scenario_a.json").read_text())["world"]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"seed": 1, "duration_ms": 120000, "world": dict(
        world, instances=[{"name": "../escaped", "address": "10.0.0.1"}])}))
    code = main(["run", "--flow", str(fixture_path("flow_a.json")), "--scenario", str(scenario),
                 "--store-dir", str(tmp_path / "run" / "store")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {scenario}: instance name '../escaped' holds a '/'\n"
    assert sorted(tmp_path.rglob("*")) == [scenario]


DUPLICATE_NAMES = {
    "instance-name": ({"instances": [{"name": "a", "address": "10.0.0.2"},
                                     {"name": "a", "address": "10.0.0.1"}]},
                      "duplicate instance name 'a'"),
    "instance-address": ({"instances": [{"name": "a", "address": "10.0.0.2"},
                                        {"name": "b", "address": "10.0.0.2"}]},
                         "duplicate instance address '10.0.0.2'"),
    "device-id": ({"devices": [SENSOR, dict(SENSOR, topic="u")]}, "duplicate device id 's'"),
    "service-id": ({"services": [{"id": "v"}, {"id": "v", "port": 81}]},
                   "duplicate service id 'v'"),
}


@pytest.mark.parametrize("case", sorted(DUPLICATE_NAMES))
def test_run_duplicate_world_name_exits_2(tmp_path, fixture_path, capsys, case):
    world, message = DUPLICATE_NAMES[case]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"seed": 1, "duration_ms": 20000, "world": world}))
    # one flow per declared instance, so only the duplicate can fail the run
    flows = ["--flow", str(fixture_path("flow_c.json"))] * max(1, len(world.get("instances", [])))
    code = main(["run", *flows, "--scenario", str(scenario)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"


def test_run_more_flows_than_automatic_addresses_exits_2(tmp_path, fixture_path, capsys):
    # Undeclared instances get 10.0.0.1, 10.0.0.2, ...; the 256th has no such address.
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"seed": 1, "duration_ms": 100}))
    code = main(["run", *["--flow", str(fixture_path("flow_c.json"))] * 256,
                 "--scenario", str(scenario)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {scenario}: 256 flow documents and no declared instances: "
        "automatic addresses end at 10.0.0.255\n")


def test_run_negative_seed_exits_2(fixture_path, capsys):
    code = main(["run", "--flow", str(fixture_path("flow_a.json")),
                 "--scenario", str(fixture_path("scenario_a.json")), "--seed", "-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--seed must be at least 0, got -3" in captured.err
    assert captured.out == ""


NUL_FLOW = {"nodes": [{"id": "in", "type": "mqtt-in", "config": {"topic": "t"},
                       "wires": [[["out", 0]]]},
                      {"id": "out", "type": "mqtt-out", "config": {"topic": "u"}}]}
NUL_SCENARIO = {"seed": 1, "duration_ms": 1000,
                "world": {"devices": [SENSOR], "instances": [{"name": "a", "address": "10.0.0.1"}]}}
NULS = {
    "flow-node-id": (
        {"nodes": [dict(NUL_FLOW["nodes"][0], wires=[[["o\0ut", 0]]]),
                   dict(NUL_FLOW["nodes"][1], id="o\0ut")]}, NUL_SCENARIO, "node id 'o\\x00ut'"),
    "mqtt-out-topic": (
        {"nodes": [NUL_FLOW["nodes"][0], dict(NUL_FLOW["nodes"][1], config={"topic": "u\0"})]},
        NUL_SCENARIO, "config 'topic'"),
    "device-topic": (
        NUL_FLOW, dict(NUL_SCENARIO, world={"devices": [dict(SENSOR, topic="t\0")]}),
        "device 's' topic"),
    "instance-name": (
        NUL_FLOW, dict(NUL_SCENARIO, world={"instances": [{"name": "a\0", "address": "10.0.0.1"}]}),
        "instance name"),
}


@pytest.mark.parametrize("case", sorted(NULS))
def test_run_rejects_a_nul_in_a_name(tmp_path, capsys, case):
    # The one character that Python 3.10's csv.reader cannot read back.
    flow_doc, scenario_doc, field_name = NULS[case]
    flow, scenario = tmp_path / "f.json", tmp_path / "s.json"
    flow.write_text(json.dumps(flow_doc))
    scenario.write_text(json.dumps(scenario_doc))
    code = main(["run", "--flow", str(flow), "--scenario", str(scenario),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert field_name in err and "NUL" in err
    assert not (tmp_path / "t.csv").exists()


def test_report_reads_a_quoted_carriage_return_unchanged(tmp_path, capsys):
    log = TimelineLog()
    log.add(0, "world", "emit", "s", 0, "t", 1)
    log.add(0, "a", "emit", "post", 0, "service/x,\r", 1)
    timeline = tmp_path / "t.csv"
    timeline.write_bytes(log.to_csv().encode("utf-8"))
    assert main(["report", "--timeline", str(timeline), "--metric", "loss"]) == 0
    # The report writes the name as its JSON string, so the line stays one line.
    assert 'sink "service/x,\\r": delivered=1 expected=1 loss=0' in capsys.readouterr().out


def test_report_loss_from_file(tmp_path, fixture_path, capsys):
    out = tmp_path / "t.csv"
    main(["run", "--flow", str(fixture_path("flow_c.json")),
          "--flow", str(fixture_path("flow_c.json")),
          "--scenario", str(fixture_path("scenario_c_loss.json")),
          "--out", str(out)])
    capsys.readouterr()
    code = main(["report", "--timeline", str(out), "--metric", "loss",
                 "--sink", "telemetry"])
    assert code == 0
    text = capsys.readouterr().out
    assert "sink service/telemetry" in text


def test_report_mttr_na_without_faults(tmp_path, fixture_path, capsys):
    out = tmp_path / "t.csv"
    main(["run", "--flow", str(fixture_path("flow_a.json")),
          "--scenario", str(fixture_path("scenario_a.json")), "--out", str(out)])
    capsys.readouterr()
    code = main(["report", "--timeline", str(out), "--metric", "mttr"])
    assert code == 0
    assert "n/a" in capsys.readouterr().out


def test_report_rejects_non_timeline(tmp_path, capsys):
    junk = tmp_path / "x.csv"
    junk.write_text("a,b,c\n1,2,3\n")
    assert main(["report", "--timeline", str(junk), "--metric", "loss"]) == 2


@pytest.mark.parametrize("rows, message", [
    ("5,a,emit,n,0,t,1\n6,a,bogus,n,0,t,1\n", "unknown event kind 'bogus'"),
    ("5,a,emit,n,0,t,1\n1,a,emit,n,0,t,1\n", "timeline times must be non-decreasing"),
], ids=["unknown-kind", "time-backwards"])
def test_report_rejects_what_the_log_would_not_add(tmp_path, capsys, rows, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_ms,instance,event,node,port,topic,value\n" + rows)
    assert main(["report", "--timeline", str(bad), "--metric", "loss"]) == 2
    assert message in capsys.readouterr().err


def test_report_value_nested_too_deep_exits_2(tmp_path, capsys):
    bad = tmp_path / "deep.csv"
    bad.write_text(f"time_ms,instance,event,node,port,topic,value\n5,a,emit,n,0,t,{TOO_DEEP}\n")
    assert main(["report", "--timeline", str(bad), "--metric", "loss"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: not a timeline CSV: ")


def test_python_dash_m_runs_the_cli(fixture_path):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-m", "healflow", "validate",
                           "--flow", str(fixture_path("flow_a.json"))],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "ok" in done.stdout


def test_report_is_pure_function_of_timeline(tmp_path, fixture_path, capsys):
    out = tmp_path / "t.csv"
    main(["run", "--flow", str(fixture_path("flow_c.json")),
          "--flow", str(fixture_path("flow_c.json")),
          "--scenario", str(fixture_path("scenario_c_loss.json")),
          "--out", str(out)])
    capsys.readouterr()
    main(["report", "--timeline", str(out), "--metric", "mttr"])
    first = capsys.readouterr().out
    main(["report", "--timeline", str(out), "--metric", "mttr"])
    assert capsys.readouterr().out == first


def test_seed_flag_overrides_scenario_seed(tmp_path, fixture_path):
    outs = {}
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.csv"
        main(["run", "--flow", str(fixture_path("flow_a.json")),
              "--scenario", str(fixture_path("scenario_a.json")),
              "--seed", seed, "--out", str(out)])
        outs[seed] = out.read_text()
    assert outs["1"] != outs["2"]


def test_store_dir_materializes_files(tmp_path, fixture_path):
    store = tmp_path / "stores"
    main(["run", "--flow", str(fixture_path("flow_a.json")),
          "--scenario", str(fixture_path("scenario_a.json")),
          "--store-dir", str(store), "--out", str(tmp_path / "t.csv")])
    assert (store / "instance-0.store").exists()


def test_store_dir_files_hold_json_array_lines_that_reload_clean(tmp_path, fixture_path):
    store = tmp_path / "stores"
    for name in ("one.csv", "two.csv"):
        assert main(["run", "--flow", str(fixture_path("flow_a.json")),
                     "--scenario", str(fixture_path("scenario_a.json")),
                     "--store-dir", str(store), "--out", str(tmp_path / name)]) == 0
    files = sorted(store.glob("*.store"))
    assert files
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines and all(isinstance(json.loads(line), list) for line in lines)
        assert Store(path).skipped == 0
