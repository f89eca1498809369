from functools import partial

import pytest
from hypothesis import given, strategies as st

from healflow.core.graph import validate_graph
from healflow.persistence import Store
from healflow.sim.world import Service, VirtualDevice, World
from tests.conftest import build_graph, make_engine, make_spec


def probe_engine(*specs, devices=(), services=(), store=None):
    world = World(seed=1, devices=list(devices), services=list(services))
    engine = make_engine(build_graph(*specs), instance="i0", store=store, world=world)
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


@pytest.mark.parametrize("ports", [["80"], [80.0], [True], [80, None], [[80]]])
def test_http_aware_rejects_a_port_that_is_not_an_integer(ports):
    graph = build_graph(make_spec("probe", "http-aware", {"period": 5000, "ports": ports}))
    [problem] = [d.message for d in validate_graph(graph) if d.severity == "error"]
    assert "config 'ports' must hold integers" in problem


def test_http_aware_accepts_integer_ports_and_no_filter():
    for ports in ([80, 443], [], None):
        graph = build_graph(make_spec("probe", "http-aware", {"period": 5000, "ports": ports}))
        assert [d for d in validate_graph(graph) if d.severity == "error"] == []


# --- network-aware ---------------------------------------------------------------

def test_network_aware_sees_devices_and_instances():
    dev = VirtualDevice(id="sensor-node-1", kind="periodicSensor", topic="t", period=100)
    engine, _ = probe_engine(
        make_spec("scan", "network-aware", {"period": 5000}), devices=[dev])
    engine.start()
    hosts = sorted(v["host"] for _, v in [(e.time, e.value) for e in engine.log.emits("scan")])
    assert hosts == ["i0", "sensor-node-1"]


def test_network_aware_of_a_world_less_engine_sees_its_own_instance():
    engine = make_engine(build_graph(make_spec("scan", "network-aware", {"period": 5000})),
                         instance="solo")
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


# --- the scan both share ----------------------------------------------------------

PERIOD, T_END = 100, 1000
TOGGLES = st.lists(st.tuples(st.integers(1, T_END), st.integers(0, 3)), max_size=12)


def replay_scans(engine, node, tag, key, toggles, flip, present):
    """Run node's scan while toggles (time, index) call flip(index) before that
    time's scan, then replay its events, adding each key on egress 0 and
    removing it on egress 1. After each scan the replayed keys must be the
    keys of present() at that time, in the order the rule gives, and a scan
    that sees no change must emit nothing."""
    clock = engine.clock
    truth = {0: {key(v) for v in present()}}
    for t, i in toggles:
        clock.at(t, partial(flip, i), rank=0)
    for t in range(PERIOD, T_END + 1, PERIOD):  # after the toggles of time t, before its scan
        clock.at(t, lambda t=t: truth.__setitem__(t, {key(v) for v in present()}), rank=0)
    engine.start()
    engine.run_until(T_END)
    emits = engine.log.emits(node)
    assert {e.time for e in emits} <= truth.keys()
    assert [(e.time, e.value) for e in engine.log if e.kind == "timer" and e.node == node] == [
        (t, tag) for t in truth if t]
    replayed, before = set(), set()
    for t, now in sorted(truth.items()):
        events = [(e.port, key(e.value)) for e in emits if e.time == t]
        assert events == sorted(events)  # arrivals, then departures, each in key order
        for port, k in events:
            assert (k in replayed) == bool(port)
            (replayed.remove if port else replayed.add)(k)
        assert replayed == now
        assert bool(events) == (now != before)
        before = now


@given(n=st.integers(1, 4), ports=st.lists(st.sampled_from([80, 443]), min_size=4,
                                            max_size=4),
       filtered=st.booleans(), toggles=TOGGLES)
def test_http_aware_replays_to_the_running_services_at_every_probe(n, ports, filtered,
                                                                   toggles):
    services = [Service(f"svc-{i}", f"host-{i}", ports[i]) for i in range(n)]
    only = [443] if filtered else None
    engine, world = probe_engine(
        make_spec("probe", "http-aware", {"period": PERIOD, "ports": only}), services=services)

    def flip(i):
        svc = world.services.get(f"svc-{i}")
        if svc is not None:
            svc.up = not svc.up

    replay_scans(engine, "probe", "probe", lambda v: (v["host"], v["port"]), toggles, flip,
                 lambda: [{"host": s.host, "port": s.port} for s in world.services_up()
                          if only is None or s.port in only])


@given(devices=st.integers(0, 4), instances=st.integers(0, 4), toggles=TOGGLES)
def test_network_aware_replays_to_the_hosts_at_every_scan(devices, instances, toggles):
    engine, world = probe_engine(
        make_spec("scan", "network-aware", {"period": PERIOD}),
        devices=[VirtualDevice(id=f"dev-{i}", kind="periodicSensor", topic="t", period=T_END)
                 for i in range(devices)])
    peers = build_graph(make_spec("sink", "debug"))
    for i in range(instances):
        make_engine(peers, instance=f"peer-{i}", world=world).start()

    def flip(i):
        if i < devices:
            world.set_device_online(f"dev-{i}", not world.devices[f"dev-{i}"].online)
        if i < instances:
            peer = world.engines[f"peer-{i}"]
            if peer.halted:
                peer.restart()
            else:
                peer.halt()

    replay_scans(engine, "scan", "scan", lambda v: v["host"], toggles, flip,
                 lambda: [{"host": h} for h in world.hosts()])


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
    assert registry_lines(store) == ['["REG","sensor-node-1","host","sensor-node-1",0,"online"]']


def test_registry_left_marks_lost_and_keeps_last_seen(tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.clock.run_until(500)
    engine.deliver_external("reg", "", {"event": "joined", "host": "dev-1"}, ingress=0)
    engine.clock.run_until(900)
    engine.deliver_external("reg", "", {"event": "left", "host": "dev-1"}, ingress=0)
    assert engine.log.emits("reg")[-1].value == {
        "device": "dev-1", "status": "lost", "lastSeen": 500}
    assert registry_lines(store) == ['["REG","dev-1","host","dev-1",500,"lost"]']


def test_registry_duplicate_join_refreshes_single_entry(tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.deliver_external("reg", "", {"event": "joined", "host": "dev-1"}, ingress=0)
    engine.clock.run_until(100)
    engine.deliver_external("reg", "", {"event": "joined", "host": "dev-1"}, ingress=0)
    assert engine.log.emits("reg")[-1].value == {
        "device": "dev-1", "status": "online", "lastSeen": 100}
    assert registry_lines(store) == ['["REG","dev-1","host","dev-1",100,"online"]']


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


@pytest.mark.parametrize("payload", [
    {"event": "joined"}, {"event": "left", "host": ""}, {"event": "appeared", "service": 7}])
def test_registry_event_without_a_device_id_is_error(payload, tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.deliver_external("reg", "", payload, ingress=0)
    [entry] = engine.log.emits("reg")
    assert (entry.port, entry.value) == (1, {"kind": "missing-id", "value": payload})
    assert registry_lines(store) == []


def test_registry_accepts_service_events(tmp_path):
    engine, store = registry_engine(Store(tmp_path / "i.store"))
    engine.deliver_external(
        "reg", "", {"event": "appeared", "service": "v1", "host": "h", "port": 80},
        ingress=0)
    assert registry_lines(store) == ['["REG","v1","service","h:80",0,"online"]']


def test_registry_reloads_every_entry_it_reports_online(tmp_path):
    """An online event whose kind or host is not a string, or whose port is
    not an int, is malformed, so every device the node reports online reloads
    with its endpoint as given and no store line is skipped."""
    path = tmp_path / "i.store"
    engine, store = registry_engine(Store(path))
    for payload in ({"event": "appeared", "service": "svc", "kind": {"x": 1}, "host": "h"},
                    {"event": "appeared", "service": "bare", "host": 5},
                    {"event": "appeared", "service": "v1", "host": 5, "port": 80},
                    {"event": "appeared", "service": "v3", "host": "h", "port": {"x": 1}},
                    {"event": "appeared", "service": "v4", "host": "h", "port": True},
                    {"event": "appeared", "service": "v2", "kind": "camera", "host": "h"},
                    {"event": "joined", "host": "dev-1"}):
        engine.deliver_external("reg", "", payload, ingress=0)
    emits = engine.log.emits("reg")
    assert [e.value["value"]["service"] for e in emits if e.port == 1] == [
        "svc", "bare", "v1", "v3", "v4"]
    assert {e.value["kind"] for e in emits if e.port == 1} == {"malformed"}
    online = [e.value["device"] for e in emits if e.port == 0]
    assert online == ["v2", "dev-1"]
    store.close()
    reloaded = Store(path)
    assert reloaded.skipped == 0
    endpoints = [reloaded.registry_mark_lost(d).endpoint for d in online]
    reloaded.close()
    assert endpoints == ["h", "dev-1"]
