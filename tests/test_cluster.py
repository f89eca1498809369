import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from healflow.cluster import (LoopbackTransport, PingDecodeError, decode_ping, election_key,
                              encode_ping)
from healflow.core.clock import VirtualClock
from healflow.core.engine import Engine
from healflow.persistence import Store
from healflow.sim import Simulation, World, parse_scenario
from tests.conftest import build_graph, make_spec


def redundancy_graph(election_timeout=15000):
    return build_graph(
        make_spec("red", "redundancy",
                  {"electionTimeout": election_timeout, "controlledFlows": ["ingest"]},
                  flow="control", wires=[[("fctl", 0)], []]),
        make_spec("fctl", "flow-control", flow="control"),
        make_spec("work", "debug", flow="ingest", enabled=False),
    )


def roles(log, instance):
    return [(e.time, e.value["role"]) for e in log
            if e.kind == "role-change" and e.instance == instance]


# --- one agent, driven by hand ---------------------------------------------------------

SELF = "192.168.1.54"
HIGHER = "192.168.1.201"


def agent(address=SELF):
    """A started engine alone in its own world: its pings reach no peer."""
    engine = Engine(redundancy_graph(), instance="me", address=address, store=Store(),
                    world=World())
    engine.start()
    return engine


def ping(engine, address, at):
    """Advance the engine's clock to `at`, then hand its agent a ping from `address`."""
    engine.run_until(at)
    engine.cluster.receive_datagram(encode_ping(address, 0, at))


def transitions(engine):
    return [(e.time, e.value) for e in engine.log if e.kind == "role-change"]


def spy_elections(engine):
    """Record (time, reason) of every election the agent runs from now on."""
    calls = []
    run = engine.cluster.run_election

    def spy(reason):
        calls.append((engine.clock.now, reason))
        run(reason)
    engine.cluster.run_election = spy
    return calls


def spy_listener(engine):
    calls = []
    engine.cluster.add_listener(lambda *args: calls.append(args))
    return calls


def commands(engine):
    """(time, command) of every flow-control command the redundancy node emitted."""
    return [(e.time, e.value) for e in engine.log.emits("red") if e.port == 0]


ENABLE = {"action": "enable", "flow": "ingest"}
DISABLE = {"action": "disable", "flow": "ingest"}


# --- election key ------------------------------------------------------------------

def test_election_key_parses_last_octet():
    assert election_key("192.168.1.201") == (201, "192.168.1.201")


def test_election_key_rejects_bad_addresses():
    for bad in ("192.168.1", "1.2.3.4.5", "a.b.c.d", "1.2.3.999", "1.2.3.", "1.2.3.-1",
                "1.2.3.٣", "", None, 42):
        with pytest.raises(ValueError):
            election_key(bad)


# --- wire protocol -----------------------------------------------------------------

def test_encode_ping_exact_line():
    data = encode_ping("192.168.1.201", 3, 42000)
    assert data == b"SHEN/1 PING 192.168.1.201 3 42000\n"


@given(st.integers(0, 255), st.integers(0, 10**6), st.integers(0, 10**9))
def test_ping_round_trips(octet, epoch, now):
    address = f"10.0.0.{octet}"
    assert decode_ping(encode_ping(address, epoch, now)) == (address, epoch, now)


def test_decode_rejects_unknown_verb():
    with pytest.raises(PingDecodeError):
        decode_ping(b"SHEN/1 PONG 10.0.0.1 0 0\n")


def test_decode_rejects_garbage():
    for blob in (b"hello", b"SHEN/2 PING 1.2.3.4 0 0\n", b"SHEN/1 PING x y z\n", b"\xff\xfe"):
        with pytest.raises(PingDecodeError):
            decode_ping(blob)


# --- peers and liveness -------------------------------------------------------------

def test_on_ping_registers_and_refreshes():
    engine = agent()
    elections = spy_elections(engine)
    ping(engine, HIGHER, 100)   # new peer: election
    ping(engine, HIGHER, 200)   # refresh: none
    assert elections == [(100, "master-recovered")]
    assert engine.cluster.peers[HIGHER] == (election_key(HIGHER), 200, True)


def test_detection_boundary_alive_at_timeout_dead_after():
    engine = agent()
    ping(engine, HIGHER, 0)
    ping(engine, "192.168.1.12", 1)
    engine.run_until(15000)
    assert engine.cluster.peers[HIGHER][2] is True    # still alive at last + timeout
    engine.run_until(15001)
    # HIGHER's expiry checks every peer; the other is at exactly last + timeout
    assert engine.cluster.peers[HIGHER][2] is False
    assert engine.cluster.peers["192.168.1.12"][2] is True
    engine.run_until(15002)
    assert engine.cluster.peers["192.168.1.12"][2] is False


def test_dead_peer_reported_once():
    engine = agent()
    notified = spy_listener(engine)
    ping(engine, HIGHER, 0)
    engine.run_until(60000)   # three more periodic elections after the death
    assert transitions(engine) == [
        (15001, {"role": "master", "epoch": 1, "reason": "election-result"})]
    assert notified == [("master", 1)]
    assert commands(engine) == [(15001, ENABLE)]


def test_revival_after_death():
    engine = agent()
    ping(engine, HIGHER, 0)
    engine.run_until(20000)
    elections = spy_elections(engine)
    ping(engine, HIGHER, 21000)
    assert elections == [(21000, "master-recovered")]
    assert engine.cluster.peers[HIGHER] == (election_key(HIGHER), 21000, True)
    assert transitions(engine)[-1] == (
        21000, {"role": "standby", "epoch": 2, "reason": "master-recovered"})


# --- election ------------------------------------------------------------------

OCTETS = (12, 54, 201)


def test_elect_master_all_subsets_brute_force():
    for own in OCTETS:
        others = [o for o in OCTETS if o != own]
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                engine = agent(f"192.168.1.{own}")
                for o in subset:
                    ping(engine, f"192.168.1.{o}", 0)
                engine.run_until(15000)   # the first periodic election
                expected = "master" if own == max(subset + (own,)) else "standby"
                assert engine.cluster.role == expected, (own, subset)


def test_elect_master_failover_to_next_octet():
    world = World()
    clock, log = world.clock, world.log
    engines = {o: Engine(redundancy_graph(), instance=str(o), address=f"192.168.1.{o}",
                         store=Store(), world=world) for o in OCTETS}
    for engine in engines.values():
        engine.start()
    clock.run_until(20000)
    engines[201].halt()
    clock.run_until(60000)
    assert roles(log, "201") == [(0, "master")]
    takeover = roles(log, "54")[-1]
    assert takeover[1] == "master" and 20000 < takeover[0] <= 20000 + 15001
    assert roles(log, "12") == []


def test_elect_master_tie_breaks_on_full_address():
    assert election_key("10.0.0.7") < election_key("10.0.1.7")
    low = agent("10.0.0.7")
    ping(low, "10.0.1.7", 0)
    low.run_until(15000)
    high = agent("10.0.1.7")
    ping(high, "10.0.0.7", 0)
    assert (low.cluster.role, high.cluster.role) == ("standby", "master")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_election_agreement_is_order_independent(data):
    addresses = data.draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 255)).map("10.0.{0[0]}.{0[1]}".format),
        min_size=1, max_size=5, unique=True))
    masters = []
    for address in addresses:
        engine = agent(address)
        peers = [a for a in addresses if a != address]
        for peer in data.draw(st.permutations(peers)):
            ping(engine, peer, 0)
        engine.run_until(15000)
        if engine.cluster.role == "master":
            masters.append(address)
    assert masters == [max(addresses, key=election_key)]


# --- role transitions -------------------------------------------------------------

def test_standby_becomes_master_when_alone():
    engine = agent()
    notified = spy_listener(engine)
    engine.run_until(15000)
    assert (engine.cluster.role, engine.cluster.epoch) == ("master", 1)
    assert notified == [("master", 1)]
    assert commands(engine) == [(15000, ENABLE)]
    assert engine.flow_enabled["ingest"] is True


def test_master_steps_down_when_higher_octet_recovers():
    engine = agent()
    engine.run_until(15000)
    notified = spy_listener(engine)
    ping(engine, HIGHER, 16000)
    assert (engine.cluster.role, engine.cluster.epoch) == ("standby", 2)
    assert notified == [("standby", 2)]
    assert commands(engine) == [(15000, ENABLE), (16000, DISABLE)]
    assert engine.flow_enabled["ingest"] is False


def test_no_change_no_commands():
    engine = agent()
    notified = spy_listener(engine)
    for t in range(0, 45001, 3000):
        ping(engine, HIGHER, t)
    engine.run_until(45000)   # three periodic elections, all standby
    assert (engine.cluster.role, engine.cluster.epoch) == ("standby", 0)
    assert transitions(engine) == []
    assert notified == []
    assert engine.log.emits("red") == []


# --- random crash schedules ------------------------------------------------------------

@st.composite
def crash_schedules(draw):
    """Instances, crash/restart events and the time membership last changed."""
    count = draw(st.integers(2, 5))
    octets = draw(st.lists(st.integers(1, 254), min_size=count, max_size=count, unique=True))
    instances = [{"name": f"i{o}", "address": f"10.0.{o % 3}.{o}"} for o in octets]
    events = draw(st.lists(st.fixed_dictionaries({
        "at_ms": st.integers(0, 8000),
        "kind": st.sampled_from(["instance_crash", "instance_restart"]),
        "target": st.sampled_from([i["name"] for i in instances]),
    }), max_size=8))
    return instances, events, draw(st.sampled_from([200, 500, 1000]))


@given(crash_schedules())
@settings(max_examples=30, deadline=None)
def test_one_master_with_the_largest_key_once_membership_is_stable(schedule):
    instances, events, timeout = schedule
    ping_period = timeout // 5
    settled = max((e["at_ms"] for e in events), default=0) + timeout + ping_period
    script = parse_scenario(json.dumps({"seed": 1, "duration_ms": settled, "events": events,
                                        "world": {"instances": instances}}))
    sim = Simulation([redundancy_graph(timeout) for _ in instances], script)
    log = sim.run()

    running = {n: e for n, e in sim.world.engines.items() if not e.halted}
    masters = [n for n, e in running.items() if e.cluster.role == "master"]
    expected = [max(running, key=lambda n: election_key(running[n].address))] if running else []
    assert masters == expected

    # Every role change flips the role and raises the epoch of that
    # incarnation by one; a restart starts a fresh agent at standby, epoch 0.
    state = {i["name"]: ("standby", 0) for i in instances}
    for e in log:
        if e.kind == "fault" and e.value["kind"] == "instance_restart":
            state[e.node] = ("standby", 0)
        elif e.kind == "role-change":
            role, epoch = state[e.instance]
            assert e.value["role"] != role
            assert e.value["epoch"] == epoch + 1
            state[e.instance] = (e.value["role"], e.value["epoch"])


# --- transport --------------------------------------------------------------------

def test_loopback_broadcast_excludes_sender():
    clock = VirtualClock()
    got = {"a": [], "b": []}
    transport = LoopbackTransport(clock)
    transport.register("1.1.1.1", lambda d: got["a"].append((clock.now, d)), rank=0)
    transport.register("2.2.2.2", lambda d: got["b"].append((clock.now, d)), rank=0)
    clock.run_until(500)
    transport.broadcast("1.1.1.1", b"x")
    clock.run_until(1000)
    assert got["a"] == []
    assert got["b"] == [(500, b"x")]


def test_loopback_drop():
    clock = VirtualClock()
    got = []
    transport = LoopbackTransport(clock)
    transport.register("1.1.1.1", lambda d: None, rank=0)
    transport.register("2.2.2.2", got.append, rank=0)
    transport.set_drop("1.1.1.1", "2.2.2.2", True)
    transport.broadcast("1.1.1.1", b"x")
    clock.run_until(10)
    assert got == []


# --- live two-instance behavior ------------------------------------------------------

def two_instances():
    world = World()
    low = Engine(redundancy_graph(), instance="low", address="192.168.1.54", store=Store(),
                 world=world)
    high = Engine(redundancy_graph(), instance="high", address="192.168.1.201", store=Store(),
                  world=world)
    return world.clock, world.log, low, high


def test_highest_octet_claims_mastership_at_boot():
    clock, log, low, high = two_instances()
    low.start()
    high.start()
    clock.run_until(1000)
    assert roles(log, "high") == [(0, "master")]
    assert roles(log, "low") == []
    assert high.flow_enabled["ingest"] is True
    assert low.flow_enabled["ingest"] is False


def test_standby_takes_over_within_timeout_plus_tick():
    clock, log, low, high = two_instances()
    low.start()
    high.start()
    clock.run_until(20000)
    high.halt()
    crash_at = clock.now
    clock.run_until(60000)
    takeover = roles(log, "low")
    assert takeover and takeover[0][1] == "master"
    assert takeover[0][0] <= crash_at + 15000 + 1
    assert low.flow_enabled["ingest"] is True


def test_recovered_master_wins_the_next_election():
    clock, log, low, high = two_instances()
    low.start()
    high.start()
    clock.run_until(20000)
    high.halt()
    clock.run_until(60000)

    # restart the crashed high instance, as an instance_restart fault would
    high2 = high.restart()
    clock.run_until(120000)
    assert roles(log, "high")[-1][1] == "master"
    assert roles(log, "low")[-1][1] == "standby"
    assert high2.flow_enabled["ingest"] is True
    assert low.flow_enabled["ingest"] is False


def test_single_instance_elects_itself_at_first_periodic_election():
    engine = Engine(redundancy_graph(), instance="solo", address="10.0.0.9", store=Store(),
                    world=World())
    engine.start()
    engine.clock.run_until(30000)
    assert roles(engine.log, "solo") == [(15000, "master")]


def test_redundancy_node_emits_commands_then_role():
    clock, log, low, high = two_instances()
    low.start()
    high.start()
    clock.run_until(1000)
    emits = [e for e in log if e.kind == "emit" and e.instance == "high" and e.node == "red"]
    assert [(e.port, e.value) for e in emits] == [
        (0, {"action": "enable", "flow": "ingest"}),
        (1, {"role": "master"}),
    ]


def test_ping_with_a_bad_address_is_logged_and_ignored(caplog):
    clock, log, low, high = two_instances()
    low.start()
    high.start()
    clock.run_until(1000)
    transport = low.cluster.transport
    with caplog.at_level("INFO", logger="healflow.cluster"):
        transport.send("10.0.0.1", "192.168.1.54", b"SHEN/1 PING 10.0.0.999 0 0\n")
        clock.run_until(2000)
    assert "10.0.0.999" in caplog.text
    assert list(low.cluster.peers) == ["192.168.1.201"]
    assert roles(log, "high") == [(0, "master")]
    assert low.flow_enabled["ingest"] is False
