from healflow.core.engine import Engine
from healflow.persistence import Store
from healflow.sim import Service, VirtualDevice, World
from tests.conftest import build_graph, make_spec


def probe_engine(*specs, devices=(), services=(), store=None):
    world = World(seed=1, devices=list(devices), services=list(services))
    engine = Engine(build_graph(*specs), instance="i0", address="127.0.0.1",
                    store=store if store is not None else Store(), world=world)
    return engine, world


# --- http-aware -------------------------------------------------------------------

def test_http_aware_first_probe_discovers_running_services():
    engine, _ = probe_engine(
        make_spec("probe", "http-aware", {"period": 10000}),
        services=[Service("svc-a", "host-a", 80), Service("svc-b", "host-b", 81)],
    )
    engine.start()
    events = [v for _, v in [(e.time, e.value) for e in engine.log.emits("probe")]]
    assert [e["service"] for e in events] == ["svc-a", "svc-b"]
    assert all(e["event"] == "appeared" for e in events)


def test_http_aware_service_down_reports_disappeared_next_probe():
    svc = Service("svc-a", "host-a", 80)
    engine, world = probe_engine(
        make_spec("probe", "http-aware", {"period": 10000}), services=[svc])
    engine.start()
    world.services["svc-a"].up = False
    engine.clock.run_until(10000)
    last = engine.log.emits("probe")[-1]
    assert last.value["event"] == "disappeared"
    assert last.time == 10000
    assert last.port == 1


def test_http_aware_steady_state_is_silent():
    engine, _ = probe_engine(
        make_spec("probe", "http-aware", {"period": 5000}),
        services=[Service("svc-a", "host-a", 80)])
    engine.start()
    engine.clock.run_until(50000)
    assert len(engine.log.emits("probe")) == 1  # only the initial discovery


def test_http_aware_port_filter():
    engine, _ = probe_engine(
        make_spec("probe", "http-aware", {"period": 5000, "ports": [443]}),
        services=[Service("svc-a", "host-a", 80), Service("svc-b", "host-b", 443)])
    engine.start()
    [entry] = engine.log.emits("probe")
    assert entry.value["service"] == "svc-b"


# --- network-aware ---------------------------------------------------------------

def test_network_aware_sees_devices_and_instances():
    dev = VirtualDevice(id="sensor-node-1", kind="periodicSensor", topic="t", period=100)
    engine, _ = probe_engine(
        make_spec("scan", "network-aware", {"period": 5000}), devices=[dev])
    engine.start()
    hosts = sorted(v["host"] for _, v in [(e.time, e.value) for e in engine.log.emits("scan")])
    assert hosts == ["i0", "sensor-node-1"]


def test_network_aware_of_a_world_less_engine_sees_its_own_instance():
    engine = Engine(build_graph(make_spec("scan", "network-aware", {"period": 5000})),
                    instance="solo", address="127.0.0.1", store=Store(), world=World())
    engine.start()
    assert [(e.time, e.value) for e in engine.log.emits("scan")] == [
        (0, {"event": "joined", "host": "solo"})]


def test_network_aware_device_offline_is_left_event():
    dev = VirtualDevice(id="sensor-node-1", kind="periodicSensor", topic="t", period=100)
    engine, world = probe_engine(
        make_spec("scan", "network-aware", {"period": 5000}), devices=[dev])
    engine.start()
    world.set_device_online("sensor-node-1", False)
    engine.clock.run_until(5000)
    last = engine.log.emits("scan")[-1]
    assert last.value == {"event": "left", "host": "sensor-node-1"}
    assert last.port == 1


def test_network_aware_two_unchanged_scans_are_silent():
    dev = VirtualDevice(id="d", kind="periodicSensor", topic="t", period=100)
    engine, _ = probe_engine(
        make_spec("scan", "network-aware", {"period": 5000}), devices=[dev])
    engine.start()
    baseline = len(engine.log.emits("scan"))
    engine.clock.run_until(15000)
    assert len(engine.log.emits("scan")) == baseline


# --- device-registry --------------------------------------------------------------

def registry_engine(store=None):
    store = store or Store()
    engine, _ = probe_engine(make_spec("reg", "device-registry"), store=store)
    engine.start()
    return engine, store


def registry_lines(store):
    """The registry as compact() writes it: one REG line per device, sorted by id."""
    store.compact()
    return store.path.read_text().splitlines()


def test_registry_joined_creates_online_entry(tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.deliver_external("reg", "", {"event": "joined", "host": "sensor-node-1"},
                            ingress=0)
    [entry] = engine.log.emits("reg")
    assert entry.value == {"device": "sensor-node-1", "status": "online", "lastSeen": 0}
    assert registry_lines(store) == ["REG sensor-node-1 host sensor-node-1 0 online"]


def test_registry_left_marks_lost_and_keeps_last_seen(tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.clock.run_until(500)
    engine.deliver_external("reg", "", {"event": "joined", "host": "dev-1"}, ingress=0)
    engine.clock.run_until(900)
    engine.deliver_external("reg", "", {"event": "left", "host": "dev-1"}, ingress=0)
    assert engine.log.emits("reg")[-1].value == {
        "device": "dev-1", "status": "lost", "lastSeen": 500}
    assert registry_lines(store) == ["REG dev-1 host dev-1 500 lost"]


def test_registry_duplicate_join_refreshes_single_entry(tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.deliver_external("reg", "", {"event": "joined", "host": "dev-1"}, ingress=0)
    engine.clock.run_until(100)
    engine.deliver_external("reg", "", {"event": "joined", "host": "dev-1"}, ingress=0)
    assert engine.log.emits("reg")[-1].value == {
        "device": "dev-1", "status": "online", "lastSeen": 100}
    assert registry_lines(store) == ["REG dev-1 host dev-1 100 online"]


def test_registry_unknown_left_is_error():
    engine, _ = registry_engine()
    engine.deliver_external("reg", "", {"event": "left", "host": "ghost"}, ingress=0)
    [entry] = engine.log.emits("reg")
    assert entry.port == 1
    assert entry.value["kind"] == "registry-error"


def test_registry_malformed_event_is_error():
    engine, _ = registry_engine()
    engine.deliver_external("reg", "", {"event": "exploded"}, ingress=0)
    [entry] = engine.log.emits("reg")
    assert entry.port == 1
    assert entry.value["kind"] == "malformed"


def test_registry_accepts_service_events(tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.deliver_external(
        "reg", "", {"event": "appeared", "service": "v1", "host": "h", "port": 80},
        ingress=0)
    assert registry_lines(store) == ["REG v1 service h:80 0 online"]
