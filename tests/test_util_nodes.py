from hypothesis import given, strategies as st

from healflow.sim.world import Service, World
from tests.conftest import NodeHarness, build_graph, make_engine, make_spec


# --- rbe ------------------------------------------------------------------------

def test_rbe_documented_sequence():
    h = NodeHarness("rbe")
    for i, v in enumerate((5, 5, 7, 7, 5)):
        h.feed_at(i + 1, v)
    h.run(10)
    assert [v for _, v in h.emits(0)] == [5, 7, 5]


def test_rbe_first_message_always_passes():
    h = NodeHarness("rbe")
    h.feed_at(1, None)
    h.run(2)
    assert len(h.emits(0)) == 1


def test_rbe_identical_stream_emits_once():
    h = NodeHarness("rbe")
    for i in range(10):
        h.feed_at(i + 1, "same")
    h.run(20)
    assert len(h.emits(0)) == 1


def test_rbe_deep_structural_equality():
    h = NodeHarness("rbe")
    h.feed_at(1, {"a": 1, "b": [1, 2]})
    h.feed_at(2, {"b": [1, 2], "a": 1})  # same structure, different key order
    h.feed_at(3, {"b": [1, 3], "a": 1})
    h.run(10)
    assert len(h.emits(0)) == 2


@given(st.lists(st.one_of(st.integers(0, 3), st.sampled_from([1.0, float("nan")])),
                max_size=30))
def test_rbe_drops_exactly_adjacent_duplicates(values):
    """Equality is ==, so 1.0 repeats 1, and a NaN equals nothing, itself included."""
    h = NodeHarness("rbe")
    for i, v in enumerate(values):
        h.feed_at(i + 1, v)
    h.run(len(values) + 1)
    expected = [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]
    assert [repr(v) for _, v in h.emits(0)] == [repr(v) for v in expected]


# --- extract ------------------------------------------------------------------

def test_extract_pulls_field():
    h = NodeHarness("extract", {"key": "temperature"})
    h.feed_at(1, {"temperature": 21.5, "humidity": 60})
    h.run(2)
    assert h.emits(0) == [(1, 21.5)]


def test_extract_missing_key_and_malformed():
    h = NodeHarness("extract", {"key": "t"})
    h.feed_at(1, {"x": 1})
    h.feed_at(2, 42)
    h.run(3)
    kinds = [v["kind"] for _, v in h.emits(1)]
    assert kinds == ["missing-key", "malformed"]


# --- mqtt bridges and http-post against a world ------------------------------------

def world_engine(*specs, services=()):
    world = World(seed=1, services=list(services))
    engine = make_engine(build_graph(*specs), instance="i0", world=world)
    return engine, world


def test_mqtt_roundtrip_through_broker():
    engine, world = world_engine(
        make_spec("in", "mqtt-in", {"topic": "lab/+"}, wires=[[("sink", 0)]]),
        make_spec("sink", "debug"),
    )
    engine.start()
    world.publish("lab/temp", 20.5, source="dev")
    engine.clock.run_until(10)
    assert [(e.topic, e.value) for e in engine.log.emits("in")] == [("lab/temp", 20.5)]


def test_mqtt_out_publishes():
    engine, world = world_engine(
        make_spec("in", "mqtt-in", {"topic": "relay/out"}, wires=[[("sink", 0)]]),
        make_spec("out", "mqtt-out", {"topic": "relay/out"}),
        make_spec("sink", "debug"),
    )
    engine.start()
    engine.deliver_external("out", "ignored", "payload", ingress=0)
    engine.clock.run_until(10)
    assert [v for _, v in [(e.time, e.value) for e in engine.log.emits("in")]] == ["payload"]


def test_mqtt_out_of_a_world_less_engine_reaches_its_own_mqtt_in():
    engine = make_engine(build_graph(
        make_spec("in", "mqtt-in", {"topic": "loop/+"}, wires=[[("sink", 0)]]),
        make_spec("out", "mqtt-out", {"topic": "loop/a"}),
        make_spec("sink", "debug"),
    ), instance="node")
    engine.start()
    engine.deliver_external("out", "ignored", {"v": 1}, ingress=0)
    engine.run_until(10)
    assert [(e.topic, e.value) for e in engine.log.emits("in")] == [("loop/a", {"v": 1})]


def test_http_post_emits_service_topic():
    engine, _ = world_engine(
        make_spec("post", "http-post", {"service": "validator-1"}),
        services=[Service("validator-1", "validator-1", 8081)],
    )
    engine.start()
    engine.deliver_external("post", "lab/x", {"card": "a"}, ingress=0)
    [entry] = engine.log.emits("post")
    assert entry.port == 0
    assert entry.topic == "service/validator-1"


def test_http_post_service_down_errors():
    svc = Service("validator-1", "validator-1", 8081, up=False)
    engine, _ = world_engine(
        make_spec("post", "http-post", {"service": "validator-1"}),
        services=[svc],
    )
    engine.start()
    engine.deliver_external("post", "", 1, ingress=0)
    [entry] = engine.log.emits("post")
    assert entry.port == 1
    assert entry.value["kind"] == "service-down"


def test_http_post_unknown_service_errors():
    engine, _ = world_engine(make_spec("post", "http-post", {"service": "ghost"}))
    engine.start()
    engine.deliver_external("post", "", 1, ingress=0)
    [entry] = engine.log.emits("post")
    assert entry.value["kind"] == "unknown-service"
