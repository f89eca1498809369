import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from healflow.core.envelope import topic_matches
from healflow.core.graph import parse_flow
from healflow.core.timeline import WORLD_INSTANCE
from healflow.persistence import MIN_COMPACT_LINES, Store
from healflow.sim import world as world_module
from healflow.sim.runner import Simulation, apply_fault
from healflow.sim.scenario import FAULTS, FaultEvent, ScenarioError, parse_scenario
from healflow.sim.world import VirtualDevice, World
from tests.conftest import build_graph, final_seq, make_engine, make_spec


def make_world(devices=(), services=()):
    return World(seed=3, devices=list(devices), services=list(services))


# --- broker -----------------------------------------------------------------------

def subscriber_engine(world, topic="lab/temp"):
    graph = build_graph(
        make_spec("in", "mqtt-in", {"topic": topic}, wires=[[("sink", 0)]]),
        make_spec("sink", "debug"),
    )
    engine = make_engine(graph, instance="i0", world=world)
    engine.start()
    return engine


def test_publish_reaches_single_subscriber():
    world = make_world()
    engine = subscriber_engine(world)
    world.publish("lab/temp", 21, source="dev")
    world.clock.run_until(10)
    delivers = [e for e in world.log if e.kind == "deliver" and e.node == "in"]
    assert len(delivers) == 1


def test_plus_wildcard_matches_one_level():
    world = make_world()
    engine = subscriber_engine(world, topic="lab/+")
    world.publish("lab/temp", 1, source="dev")
    world.publish("lab/hum", 2, source="dev")
    world.publish("lab/a/b", 3, source="dev")  # two levels, no match
    world.publish("attic/temp", 4, source="dev")
    world.clock.run_until(10)
    got = [e.value for e in world.log.emits("in")]
    assert got == [1, 2]


def test_net_delay_shifts_delivery_timestamp():
    world = make_world()
    engine = subscriber_engine(world)
    world.delays["dev"] = 500
    world.publish("lab/temp", 9, source="dev")
    world.clock.run_until(1000)
    [entry] = world.log.emits("in")
    assert entry.time == 500


def test_publish_gives_each_subscriber_an_independent_copy():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="lab/temp", period=100,
                        stuck={"v": 1, "tags": [1, None, True]})
    world = make_world(devices=[dev])
    original = {"v": 1, "tags": [1, None, True]}
    seen = []

    def mutate(topic, payload):
        payload["v"] = 99
        payload["tags"].append("x")

    for name in ("i0", "i1"):
        graph = build_graph(make_spec("in", "mqtt-in", {"topic": "lab/temp"}))
        engine = make_engine(graph, instance=name, world=world)
        engine.start()
        engine.nodes["in"].on_external = mutate if name == "i0" else (
            lambda topic, payload: seen.append(payload))
    world.start_devices()
    world.clock.run_until(300)
    # Three stuck readings, one shared object: the freeze mode delivers it
    # frozen, so each mutation is an operator error in i0, and reaches
    # neither i1, a later reading, the world's emits, the deliveries nor
    # the device.
    assert [(e.instance, e.value["kind"]) for e in world.log if e.kind == "fault"] == [
        ("i0", "operator-error")] * 3
    assert seen == [original] * 3
    assert [e.value for e in world.log.emits("d")] == [original] * 3
    delivered = [e.value for e in world.log if e.kind == "deliver"]
    assert delivered == [original] * 6
    assert dev.stuck == original


def broker_deliveries(world):
    """(instance, node, value) of each broker delivery, in timeline order;
    subscriber_engine's sink is fed by a wire, not the broker."""
    return [(e.instance, e.node, e.value) for e in world.log
            if e.kind == "deliver" and e.node != "sink"]


def test_a_subscription_added_after_a_publish_gets_the_topics_next_publish():
    world = make_world()
    subscriber_engine(world)
    world.publish("lab/temp", 1, source="dev")
    world.clock.run_until(10)
    late = make_engine(build_graph(make_spec("late", "mqtt-in", {"topic": "lab/+"})),
                       instance="i1", world=world)
    late.start()
    world.publish("lab/temp", 2, source="dev")
    world.clock.run_until(20)
    assert broker_deliveries(world) == [("i0", "in", 1), ("i0", "in", 2), ("i1", "late", 2)]


@pytest.mark.parametrize("patterns", [("lab/temp", "lab/+"), ("lab/+", "lab/temp")])
def test_one_publish_reaches_each_matching_subscription_in_subscription_order(patterns):
    world = make_world()
    graph = build_graph(*(make_spec(f"in-{n}", "mqtt-in", {"topic": pattern})
                          for n, pattern in enumerate(patterns)))
    make_engine(graph, instance="i0", world=world).start()
    world.publish("lab/temp", 5, source="dev")
    world.clock.run_until(10)
    assert broker_deliveries(world) == [("i0", "in-0", 5), ("i0", "in-1", 5)]


def test_each_publish_after_a_restart_delivers_once_per_subscription():
    world = make_world()
    subscriber_engine(world)
    make_engine(build_graph(make_spec("wild", "mqtt-in", {"topic": "lab/+"})),
                instance="i1", world=world).start()
    world.publish("lab/temp", 1, source="dev")
    world.clock.run_until(10)
    apply_fault(FaultEvent(10, "instance_restart", "i0"), world)
    for value in (2, 3):
        world.publish("lab/temp", value, source="dev")
        world.clock.run_until(world.clock.now + 10)
    assert broker_deliveries(world) == [
        (instance, node, value) for value in (1, 2, 3)
        for instance, node in (("i0", "in"), ("i1", "wild"))]


def test_each_topic_is_matched_once_until_a_subscription_is_added(monkeypatch):
    """Routes are built on a topic's first publish and kept until subscribe
    adds a new key: N publishes over K topics and S subscriptions make K * S
    topic_matches calls, not N * S, and a restart's re-subscription none."""
    calls = []

    def counting(pattern, topic):
        calls.append((pattern, topic))
        return topic_matches(pattern, topic)

    monkeypatch.setattr(world_module, "topic_matches", counting)
    world = make_world()
    patterns = ["lab/temp", "lab/+", "attic/+"]
    graph = build_graph(*(make_spec(f"in-{n}", "mqtt-in", {"topic": pattern})
                          for n, pattern in enumerate(patterns)))
    make_engine(graph, instance="i0", world=world).start()
    topics = ["lab/temp", "lab/hum", "attic/temp", "cellar"]
    for value in range(5):
        for topic in topics:
            world.publish(topic, value, source="dev")
    assert len(calls) == len(topics) * len(patterns)
    world.clock.run_until(10)
    apply_fault(FaultEvent(10, "instance_restart", "i0"), world)
    world.publish("lab/temp", 5, source="dev")
    assert len(calls) == len(topics) * len(patterns)

    calls.clear()
    make_engine(build_graph(make_spec("any", "mqtt-in", {"topic": "+"})),
                instance="i1", world=world).start()
    for _ in range(2):
        for topic in topics:
            world.publish(topic, 6, source="dev")
    assert calls == [(pattern, topic) for topic in topics for pattern in patterns + ["+"]]
    world.clock.run_until(20)
    # At one ms, i0's deliveries fire before i1's: engines rank in join order.
    assert [node for _, node, value in broker_deliveries(world) if value == 6] == [
        "in-0", "in-1", "in-1", "in-2"] * 2 + ["any"] * 2


# --- faults ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["instance_crash", "instance_restart"])
def test_apply_fault_logs_then_halts_or_restarts_an_instance(kind):
    world = make_world()
    engine = subscriber_engine(world)
    apply_fault(FaultEvent(0, kind, "i0"), world)
    assert [(e.instance, e.kind, e.node, e.value) for e in world.log if e.kind == "fault"] == [
        (WORLD_INSTANCE, "fault", "i0", {"kind": kind})]
    assert engine.halted
    current = world.engines["i0"]
    assert (current is engine) == (kind == "instance_crash")
    world.publish("lab/temp", 1, source="dev")
    world.clock.run_until(10)
    got = [e.kind for e in world.log if e.node == "in" and e.kind in ("deliver", "drop")]
    assert got == (["drop"] if kind == "instance_crash" else ["deliver"])


# --- devices ---------------------------------------------------------------------

def test_sensor_emits_every_period_with_zero_noise():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=100, base=22.0)
    world = make_world(devices=[dev])
    world.start_devices()
    world.clock.run_until(500)
    emits = world.log.emits("d")
    assert [(e.time, e.value) for e in emits] == [
        (100, 22.0), (200, 22.0), (300, 22.0), (400, 22.0), (500, 22.0)]


def test_offline_device_emits_nothing():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=100)
    world = make_world(devices=[dev])
    world.start_devices()
    world.clock.run_until(150)
    apply_fault(FaultEvent(150, "device_offline", "d"), world)
    world.clock.run_until(500)
    assert [e.time for e in world.log.emits("d")] == [100]


def test_device_online_boot_reading_then_periodic_schedule():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=100, base=5)
    world = make_world(devices=[dev])
    world.start_devices()
    world.clock.run_until(110)
    apply_fault(FaultEvent(110, "device_offline", "d"), world)
    world.clock.run_until(430)
    apply_fault(FaultEvent(430, "device_online", "d"), world)
    world.clock.run_until(600)
    times = [e.time for e in world.log.emits("d")]
    # one reading right at power-on, then back on the periodic grid
    assert times == [100, 430, 500, 600]


def test_fault_bracketing_no_emissions_while_offline():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=60000)
    world = make_world(devices=[dev])
    world.start_devices()
    world.clock.run_until(130000)
    world.set_device_online("d", False)
    world.clock.run_until(430000)
    world.set_device_online("d", True)
    world.clock.run_until(700000)
    times = [e.time for e in world.log.emits("d")]
    assert all(not (130000 < t < 430000) for t in times)


def test_stuck_value_pins_emissions():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=100,
                        base=20.0, noise_amp=5.0)
    world = make_world(devices=[dev])
    world.start_devices()
    apply_fault(FaultEvent(0, "stuck_value", "d", {"value": 7}), world)
    world.clock.run_until(300)
    assert [e.value for e in world.log.emits("d")] == [7, 7, 7]
    apply_fault(FaultEvent(300, "stuck_value", "d", {}), world)  # clear
    world.clock.run_until(400)
    assert world.log.emits("d")[-1].value != 7


def test_record_valued_device_draws_per_field_noise():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=100,
                        base={"temperature": 22.0, "humidity": 55.0},
                        noise_amp={"temperature": 1.5, "humidity": 4.0})
    world = make_world(devices=[dev])
    world.start_devices()
    world.clock.run_until(100)
    [entry] = world.log.emits("d")
    assert 20.5 <= entry.value["temperature"] <= 23.5
    assert 51.0 <= entry.value["humidity"] <= 59.0


def test_a_number_noise_amp_draws_noise_for_every_field_of_a_record():
    script = parse_scenario(json.dumps({"duration_ms": 1000, "world": {"devices": [
        {"id": "d", "topic": "t", "period_ms": 100,
         "valueModel": {"base": {"temperature": 22.0, "humidity": 55.0}, "noiseAmp": 2.0}}]}}))
    world = make_world(devices=script.world.devices)
    world.start_devices()
    world.clock.run_until(500)
    values = [e.value for e in world.log.emits("d")]
    assert len(values) == 5
    base = {"temperature": 22.0, "humidity": 55.0}
    assert all(0 < abs(v[k] - base[k]) <= 2.0 for v in values for k in base)


def test_nfc_reader_scripted_reads():
    dev = VirtualDevice(id="nfc", kind="nfcReader", topic="lab/nfc",
                        reads=[(1000, "card-a"), (2500, "card-b")])
    world = make_world(devices=[dev])
    world.start_devices()
    world.clock.run_until(5000)
    assert [(e.time, e.value) for e in world.log.emits("nfc")] == [
        (1000, "card-a"), (2500, "card-b")]


def test_nfc_reader_offline_misses_its_scripted_read():
    dev = VirtualDevice(id="nfc", kind="nfcReader", topic="lab/nfc",
                        reads=[(1000, "card-a"), (2500, "card-b")])
    world = make_world(devices=[dev])
    subscriber_engine(world, topic="lab/nfc")
    world.start_devices()
    world.clock.run_until(500)
    apply_fault(FaultEvent(500, "device_offline", "nfc"), world)
    world.clock.run_until(2000)
    apply_fault(FaultEvent(2000, "device_online", "nfc"), world)
    world.clock.run_until(5000)
    assert [(e.time, e.value) for e in world.log.emits("nfc")] == [(2500, "card-b")]
    assert [e.time for e in world.log if e.kind == "deliver" and e.node == "in"] == [2500]


def nfc_emits(*reads):
    """(time, value) of each emit of an nfcReader scripted with `reads`, run to 100 ms."""
    script = parse_scenario(json.dumps({"seed": 1, "duration_ms": 100, "world": {"devices": [
        {"id": "nfc", "kind": "nfcReader", "topic": "t",
         "reads": [{"at_ms": at, "value": value} for at, value in reads]}]}}))
    log = Simulation([parse_flow(SINK_FLOW)], script).run()
    return [(e.time, e.value) for e in log.emits("nfc")]


def test_nfc_reads_at_one_ms_with_object_values_run_in_document_order():
    reads = [(5, {"card": "b"}), (5, {"card": "a"})]
    assert nfc_emits(*reads) == reads


def test_nfc_reads_are_sorted_by_time_only_keeping_document_order_at_one_ms():
    assert nfc_emits((5, 2), (5, 1), (3, 9)) == [(3, 9), (5, 2), (5, 1)]


def test_seed_determinism_device_emissions():
    def run(seed):
        dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=50,
                            base=10.0, noise_amp=2.0)
        world = World(seed=seed, devices=[dev])
        world.start_devices()
        world.clock.run_until(1000)
        return [e.value for e in world.log.emits("d")]

    values = run(9)
    assert values == run(9)
    assert run(9) != run(10)
    assert all(8.0 <= v <= 12.0 for v in values) and len(set(values)) > 1


# --- scenario parsing ---------------------------------------------------------------

def scenario_doc(**overrides):
    doc = {
        "seed": 1,
        "duration_ms": 10000,
        "world": {"devices": [{"id": "d", "kind": "periodicSensor",
                               "topic": "t", "period_ms": 1000}]},
        "events": [{"at_ms": 500, "kind": "device_offline", "target": "d"}],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_one_event_script():
    script = parse_scenario(scenario_doc())
    assert len(script.events) == 1
    assert script.events[0].kind == "device_offline"
    assert script.world.devices[0].period == 1000


def test_unknown_fault_kind_rejected():
    doc = scenario_doc(events=[{"at_ms": 1, "kind": "explode", "target": "d"}])
    with pytest.raises(ScenarioError, match="explode"):
        parse_scenario(doc)


def test_events_out_of_order_are_sorted():
    doc = scenario_doc(events=[
        {"at_ms": 900, "kind": "device_online", "target": "d"},
        {"at_ms": 200, "kind": "device_offline", "target": "d"},
    ])
    script = parse_scenario(doc)
    assert [e.at for e in script.events] == [200, 900]


def test_unknown_target_rejected_pre_run():
    doc = scenario_doc(events=[{"at_ms": 1, "kind": "device_offline", "target": "ghost"}])
    with pytest.raises(ScenarioError, match="ghost"):
        parse_scenario(doc)


def test_event_beyond_duration_rejected():
    doc = scenario_doc(events=[{"at_ms": 99999999, "kind": "device_offline", "target": "d"}])
    with pytest.raises(ScenarioError, match="duration"):
        parse_scenario(doc)


@pytest.mark.parametrize("value", ["false", 0, None])
def test_ill_typed_device_online_rejected(value):
    doc = json.loads(scenario_doc())
    doc["world"]["devices"][0]["online"] = value
    with pytest.raises(ScenarioError, match="device 'd' online must be true or false"):
        parse_scenario(json.dumps(doc))


def test_instance_fault_requires_declared_instance():
    doc = scenario_doc(events=[{"at_ms": 1, "kind": "instance_crash", "target": "red-a"}])
    with pytest.raises(ScenarioError, match="red-a"):
        parse_scenario(doc)


# --- co-simulation ------------------------------------------------------------------

SINK_FLOW = json.dumps({"nodes": [
    {"id": "in", "type": "mqtt-in", "config": {"topic": "t"},
     "wires": [[["sink", 0]]]},
    {"id": "sink", "type": "debug"},
]})


def test_run_scenario_empty_script_steady_state():
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 5000,
        "world": {"devices": [{"id": "d", "kind": "periodicSensor",
                               "topic": "t", "period_ms": 1000}]},
        "events": []}))
    log = Simulation([parse_flow(SINK_FLOW)], script).run()
    assert len(log.emits("d")) == 5
    delivered = [e for e in log if e.kind == "deliver" and e.node == "in"]
    assert len(delivered) == 5


def test_a_noise_amp_of_the_largest_float_size_gives_infinite_readings():
    """10**308 is read as the float 1e308: the noise span overflows to
    infinity, and the run logs every reading instead of crashing."""
    script = parse_scenario(json.dumps({"seed": 1, "duration_ms": 3000, "world": {"devices": [
        {"id": "d", "topic": "t", "period_ms": 1000, "valueModel": {"noiseAmp": 10**308}}]}}))
    log = Simulation([parse_flow(SINK_FLOW)], script).run()
    assert [e.value for e in log.emits("d")] == [math.inf] * 3
    rows = log.to_csv().splitlines()[1:]  # each reading emitted, delivered, passed on
    assert len(rows) == 12 and all(row.endswith(",Infinity") for row in rows)


def test_conservation_each_emission_delivered_once_per_subscriber():
    flow2 = json.dumps({"nodes": [
        {"id": "in-a", "type": "mqtt-in", "config": {"topic": "t"}},
        {"id": "in-b", "type": "mqtt-in", "config": {"topic": "+"}},
    ]})
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 3000,
        "world": {"devices": [{"id": "d", "kind": "periodicSensor",
                               "topic": "t", "period_ms": 1000}]},
        "events": []}))
    log = Simulation([parse_flow(flow2)], script).run()
    emits = len(log.emits("d"))
    delivers = [e for e in log if e.kind == "deliver"]
    assert emits == 3
    assert len(delivers) == emits * 2


# A target of each sort that a FAULTS row can name, and params each reader takes.
FAULT_TARGET = {"device": "d", "instance": "solo", "service": "v", "source": "d"}
FAULT_PARAMS = {"net_delay": {"delay_ms": 50}, "value_noise": {"amp": 0.5},
                "stuck_value": {"value": 7}}


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_every_fault_kind_parses_runs_and_logs_one_fault_entry(kind):
    target, params = FAULT_TARGET[FAULTS[kind][0]], FAULT_PARAMS.get(kind, {})
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 3000,
        "world": {
            "devices": [{"id": "d", "kind": "periodicSensor", "topic": "t",
                         "period_ms": 1000}],
            "services": [{"id": "v"}],
            "instances": [{"name": "solo", "address": "10.0.0.1"}],
        },
        "events": [{"at_ms": 1500, "kind": kind, "target": target, "params": params}]}))
    log = Simulation([parse_flow(SINK_FLOW)], script).run()
    assert [(e.time, e.instance, e.node, e.value) for e in log if e.kind == "fault"] == [
        (1500, WORLD_INSTANCE, target, {"kind": kind, **({"params": params} if params else {})})]


def test_instance_crash_halts_engine_and_restart_revives():
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 10000,
        "world": {
            "devices": [{"id": "d", "kind": "periodicSensor", "topic": "t",
                         "period_ms": 1000}],
            "instances": [{"name": "solo", "address": "10.0.0.1"}],
        },
        "events": [
            {"at_ms": 2500, "kind": "instance_crash", "target": "solo"},
            {"at_ms": 6500, "kind": "instance_restart", "target": "solo"},
        ]}))
    log = Simulation([parse_flow(SINK_FLOW)], script).run()
    delivered = [e.time for e in log if e.kind == "deliver" and e.node == "in"]
    dropped = [e.time for e in log if e.kind == "drop" and e.node == "in"]
    assert delivered == [1000, 2000, 7000, 8000, 9000, 10000]
    assert dropped == [3000, 4000, 5000, 6000]


def test_restart_preserves_store_and_replays_checkpoint(tmp_path):
    flow = json.dumps({"nodes": [
        {"id": "in", "type": "mqtt-in", "config": {"topic": "t"},
         "wires": [[["ckpt", 0]]]},
        {"id": "ckpt", "type": "checkpoint", "config": {"timeToLive": 60000},
         "wires": [[["sink", 0]]]},
        {"id": "sink", "type": "debug"},
    ]})
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 9000,
        "world": {
            "devices": [{"id": "d", "kind": "periodicSensor", "topic": "t",
                         "period_ms": 1000, "valueModel": {"base": 4.0}}],
            "instances": [{"name": "solo", "address": "10.0.0.1"}],
        },
        "events": [
            {"at_ms": 2500, "kind": "instance_crash", "target": "solo"},
            {"at_ms": 5500, "kind": "instance_restart", "target": "solo"},
        ]}))
    log = Simulation([parse_flow(flow)], script, store_dir=str(tmp_path)).run()
    ckpt_times = [e.time for e in log.emits("ckpt")]
    # replay of the 2000ms reading right at restart, then live traffic resumes
    assert ckpt_times == [1000, 2000, 5500, 6000, 7000, 8000, 9000]
    assert (tmp_path / "solo.store").exists()


def test_a_long_run_keeps_its_store_file_bounded_and_reloadable(tmp_path):
    flow = json.dumps({"nodes": [
        {"id": "in", "type": "mqtt-in", "config": {"topic": "t"}, "wires": [[["c1", 0]]]},
        {"id": "c1", "type": "checkpoint", "config": {"timeToLive": 60000},
         "wires": [[["c2", 0]]]},
        {"id": "c2", "type": "checkpoint", "config": {"timeToLive": 60000},
         "wires": [[["sink", 0]]]},
        {"id": "sink", "type": "debug"},
    ]})
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 12000,
        "world": {
            "devices": [{"id": "d", "kind": "periodicSensor", "topic": "t", "period_ms": 10,
                         "valueModel": {"base": 4.0, "noiseAmp": 1.0}}],
            "instances": [{"name": "solo", "address": "10.0.0.1"}],
        }}))
    sim = Simulation([parse_flow(flow)], script, store_dir=str(tmp_path))
    log = sim.run()
    assert len(log.emits("c1")) + len(log.emits("c2")) == 2400 > MIN_COMPACT_LINES
    path = tmp_path / "solo.store"
    assert len(path.read_text().splitlines()) <= MIN_COMPACT_LINES
    live, fresh = sim.world.engines["solo"].store, Store(path)
    for node in ("c1", "c2"):
        assert fresh.load_checkpoint(node) == live.load_checkpoint(node)
    assert fresh.load_checkpoint("c2").timestamp == 12000


def test_service_down_is_visible_to_probe():
    flow = json.dumps({"nodes": [
        {"id": "probe", "type": "http-aware", "config": {"period": 1000}},
    ]})
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 5000,
        "world": {"services": [{"id": "validator-1", "port": 80}],
                  "instances": [{"name": "solo", "address": "10.0.0.1"}]},
        "events": [{"at_ms": 1500, "kind": "service_down", "target": "validator-1"}]}))
    log = Simulation([parse_flow(flow)], script).run()
    events = [(e.time, e.value["event"]) for e in log.emits("probe")]
    assert (0, "appeared") in events
    assert (2000, "disappeared") in events


def test_flow_count_must_match_instances():
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 100,
        "world": {"instances": [{"name": "a", "address": "10.0.0.1"},
                                {"name": "b", "address": "10.0.0.2"}]},
        "events": []}))
    with pytest.raises(ScenarioError, match="instance"):
        Simulation([parse_flow(SINK_FLOW)], script)


def test_instance_fault_on_an_undeclared_auto_named_instance_rejected():
    # Without world.instances a run names its instances instance-0, ...; a
    # script cannot target those, because parse_scenario does not know them.
    doc = json.dumps({"seed": 1, "duration_ms": 100,
                      "events": [{"at_ms": 1, "kind": "instance_crash", "target": "instance-0"}]})
    with pytest.raises(ScenarioError, match="instance_crash targets unknown instance"):
        parse_scenario(doc)


def test_merged_log_seed_determinism(fixture_path):
    flows = [parse_flow(fixture_path("flow_c.json").read_text())] * 2
    script_text = fixture_path("scenario_c_loss.json").read_text()
    runs = []
    for _ in range(2):
        log = Simulation([f for f in flows], parse_scenario(script_text)).run()
        runs.append(log.to_csv())
    assert runs[0] == runs[1]


# Faults at the very end of each run: a run that wrote them into the parsed
# script would start the next run with the device offline and stuck, and
# the services down.
END_FAULTS = {
    ("flow_a.json", "scenario_a.json"): [
        ("device_offline", "dht-1", {}), ("stuck_value", "dht-1", {"value": 1}),
        ("value_noise", "dht-1", {"amp": 9.0})],
    ("flow_b.json", "scenario_b.json"): [
        ("service_down", "validator-1", {}), ("service_down", "validator-2", {})],
}


@pytest.mark.parametrize("flow, scenario", list(END_FAULTS))
def test_one_parsed_script_runs_twice_to_the_same_bytes(fixture_path, flow, scenario):
    doc = json.loads(fixture_path(scenario).read_text())
    doc["events"] += [{"at_ms": doc["duration_ms"], "kind": kind, "target": target,
                       "params": params}
                      for kind, target, params in END_FAULTS[flow, scenario]]
    script = parse_scenario(json.dumps(doc))
    graph = parse_flow(fixture_path(flow).read_text())
    first = Simulation([graph], script).run().to_csv()
    assert Simulation([graph], script).run().to_csv() == first


# --- random scenarios over the fixture flows and worlds ------------------------------

DATA = Path(__file__).parent / "data"
FIXTURE_FLOWS = ("flow_a.json", "flow_b.json", "flow_c.json")
FIXTURE_WORLDS = ("scenario_a.json", "scenario_b.json", "scenario_c_loss.json")


@st.composite
def random_scenarios(draw):
    """(flow file, scenario document): a fixture world with random faults.

    A world without instances gets one, so crash and restart have a target.
    """
    flow = draw(st.sampled_from(FIXTURE_FLOWS))
    doc = json.loads((DATA / draw(st.sampled_from(FIXTURE_WORLDS))).read_text())
    world = doc["world"]
    world.setdefault("instances", [{"name": "solo", "address": "10.0.0.1"}])
    doc["duration_ms"] = min(doc["duration_ms"], 400_000)
    devices = [d["id"] for d in world["devices"]]
    services = [s["id"] for s in world.get("services", [])]
    instances = [i["name"] for i in world["instances"]]
    choices = [("instance_crash", instances, {}), ("instance_restart", instances, {}),
               ("device_offline", devices, {}), ("device_online", devices, {}),
               ("stuck_value", devices, {"value": 1.0}),
               ("value_noise", devices, {"amp": 5.0})]
    if services:
        choices += [("service_down", services, {}), ("service_up", services, {})]
    faults = draw(st.lists(st.tuples(st.sampled_from(choices),
                                     st.integers(0, doc["duration_ms"])), max_size=10))
    doc["events"] = [{"at_ms": at, "kind": kind, "target": draw(st.sampled_from(targets)),
                      "params": params}
                     for (kind, targets, params), at in faults]
    return flow, doc


@given(random_scenarios())
@settings(max_examples=25, deadline=None)
def test_random_faults_keep_determinism_and_the_delivery_rules(case):
    flow, doc = case
    script = parse_scenario(json.dumps(doc))
    flows = [parse_flow((DATA / flow).read_text())] * len(doc["world"]["instances"])
    sim = Simulation(flows, script)
    log = sim.run()
    assert Simulation(flows, script).run().to_csv() == log.to_csv()

    entries = log.entries
    graphs = {name: engine.graph for name, engine in sim.world.engines.items()}
    for i, e in enumerate(entries):
        if e.kind != "emit" or e.instance not in graphs:
            continue
        spec = graphs[e.instance].by_id[e.node]
        wired = spec.wires[e.port] if e.port < len(spec.wires) else []
        after = entries[i + 1:i + 1 + len(wired)]
        assert [(a.time, a.instance, a.kind in ("deliver", "drop"), a.node, a.port)
                for a in after] == [(e.time, e.instance, True, dst, ingress)
                                    for dst, ingress in wired]

    crashed = set()
    for e in entries:
        if e.kind == "fault" and e.instance == "world":
            if e.value["kind"] == "instance_crash":
                crashed.add(e.node)
            elif e.value["kind"] == "instance_restart":
                crashed.discard(e.node)
        elif e.instance in crashed:
            assert e.kind == "drop", e


@given(random_scenarios(), st.lists(st.integers(1, 60_000), min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_a_run_driven_in_random_chunks_gives_the_bytes_and_seq_of_one_run_until(case, steps):
    """Chunks are safe: driving the clock to the duration in steps of 1 ms to
    60 s, the steps drawn taken in turn, changes no timeline byte and no seq."""
    flow, doc = case
    script = parse_scenario(json.dumps(doc))
    flows = [parse_flow((DATA / flow).read_text())] * len(doc["world"]["instances"])
    whole = Simulation(flows, script)
    text = whole.run().to_csv()

    chunked = Simulation(flows, script)
    clock = chunked.world.clock
    run_until = clock.run_until

    def in_steps(t_end):
        for step in itertools.cycle(steps):
            if clock.now + step >= t_end:
                break
            run_until(clock.now + step)
        run_until(t_end)

    clock.run_until = in_steps  # Simulation.run drives its clock with one run_until call
    assert chunked.run().to_csv() == text
    assert final_seq(clock) == final_seq(whole.world.clock)
