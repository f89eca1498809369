import json

import pytest

from healflow.core.clock import VirtualClock
from healflow.core.engine import Engine
from healflow.core.graph import parse_flow
from healflow.core.timeline import TimelineLog
from healflow.sim import (FaultEvent, ScenarioError, Simulation, VirtualDevice, World,
                          apply_fault, parse_scenario, run_scenario)
from tests.conftest import build_graph, make_spec


def make_world(devices=(), services=()):
    clock = VirtualClock()
    log = TimelineLog()
    return World(clock, log, seed=3, devices=list(devices), services=list(services))


# --- broker -----------------------------------------------------------------------

def subscriber_engine(world, topic="lab/temp"):
    graph = build_graph(
        make_spec("in", "mqtt-in", {"topic": topic}, wires=[[("sink", 0)]]),
        make_spec("sink", "debug"),
    )
    engine = Engine(graph, instance="i0", clock=world.clock, log=world.log,
                    world=world, rank=2)
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
    seen = {}

    def mutate(topic, payload):
        payload["v"] = 99
        payload["tags"].append("x")

    for rank, name in enumerate(("i0", "i1"), start=2):
        graph = build_graph(make_spec("in", "mqtt-in", {"topic": "lab/temp"}))
        engine = Engine(graph, instance=name, clock=world.clock, log=world.log,
                        world=world, rank=rank)
        engine.start()
        engine.nodes["in"].on_external = mutate if name == "i0" else (
            lambda topic, payload: seen.setdefault("i1", payload))
    world.start_devices()
    world.clock.run_until(100)
    assert seen["i1"] == {"v": 1, "tags": [1, None, True]}
    [emit] = world.log.emits("d")
    assert emit.value == {"v": 1, "tags": [1, None, True]}


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


def test_nfc_reader_scripted_reads():
    dev = VirtualDevice(id="nfc", kind="nfcReader", topic="lab/nfc",
                        reads=[(1000, "card-a"), (2500, "card-b")])
    world = make_world(devices=[dev])
    world.start_devices()
    world.clock.run_until(5000)
    assert [(e.time, e.value) for e in world.log.emits("nfc")] == [
        (1000, "card-a"), (2500, "card-b")]


def test_seed_determinism_device_emissions():
    def run(seed):
        dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=50,
                            base=10.0, noise_amp=2.0)
        clock, log = VirtualClock(), TimelineLog()
        world = World(clock, log, seed=seed, devices=[dev])
        world.start_devices()
        clock.run_until(1000)
        return [e.value for e in log.emits("d")]

    assert run(9) == run(9)
    assert run(9) != run(10)


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
    log = run_scenario([parse_flow(SINK_FLOW)], script)
    assert len(log.emits("d")) == 5
    delivered = [e for e in log if e.kind == "deliver" and e.node == "in"]
    assert len(delivered) == 5


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
    log = run_scenario([parse_flow(flow2)], script)
    emits = len(log.emits("d"))
    delivers = [e for e in log if e.kind == "deliver"]
    assert emits == 3
    assert len(delivers) == emits * 2


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
    log = run_scenario([parse_flow(SINK_FLOW)], script)
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
    log = run_scenario([parse_flow(flow)], script, store_dir=str(tmp_path))
    ckpt_times = [e.time for e in log.emits("ckpt")]
    # replay of the 2000ms reading right at restart, then live traffic resumes
    assert ckpt_times == [1000, 2000, 5500, 6000, 7000, 8000, 9000]
    assert (tmp_path / "solo.store").exists()


def test_service_down_is_visible_to_probe():
    flow = json.dumps({"nodes": [
        {"id": "probe", "type": "http-aware", "config": {"period": 1000}},
    ]})
    script = parse_scenario(json.dumps({
        "seed": 1, "duration_ms": 5000,
        "world": {"services": [{"id": "validator-1", "port": 80}],
                  "instances": [{"name": "solo", "address": "10.0.0.1"}]},
        "events": [{"at_ms": 1500, "kind": "service_down", "target": "validator-1"}]}))
    log = run_scenario([parse_flow(flow)], script)
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


def test_merged_log_seed_determinism(fixture_path):
    flows = [parse_flow(fixture_path("flow_c.json").read_text())] * 2
    script_text = fixture_path("scenario_c_loss.json").read_text()
    runs = []
    for _ in range(2):
        log = run_scenario([f for f in flows], parse_scenario(script_text))
        runs.append(log.to_csv())
    assert runs[0] == runs[1]
