import itertools

import pytest
from hypothesis import given, strategies as st

from healflow.cluster import (ClusterState, InstanceId, LoopbackTransport, PeerTable,
                              PingDecodeError, decode_ping, detect_failures,
                              elect_master, encode_ping, on_ping, role_transition)
from healflow.core.clock import VirtualClock
from healflow.core.engine import Engine
from healflow.core.timeline import TimelineLog
from tests.conftest import build_graph, make_spec


def inst(address, name=None):
    return InstanceId.from_address(address, name)


# --- identity ------------------------------------------------------------------

def test_instance_id_parses_last_octet():
    i = inst("192.168.1.201")
    assert i.last_octet == 201
    assert i.name == "192.168.1.201"


def test_instance_id_rejects_bad_addresses():
    for bad in ("192.168.1", "1.2.3.4.5", "a.b.c.d", "1.2.3.999"):
        with pytest.raises(ValueError):
            inst(bad)


# --- wire protocol -----------------------------------------------------------------

def test_encode_ping_exact_line():
    data = encode_ping(inst("192.168.1.201"), 3, 42000)
    assert data == b"SHEN/1 PING 192.168.1.201 3 42000\n"


@given(st.integers(0, 255), st.integers(0, 10**6), st.integers(0, 10**9))
def test_ping_round_trips(octet, epoch, now):
    address = f"10.0.0.{octet}"
    assert decode_ping(encode_ping(inst(address), epoch, now)) == (address, epoch, now)


def test_decode_rejects_unknown_verb():
    with pytest.raises(PingDecodeError):
        decode_ping(b"SHEN/1 PONG 10.0.0.1 0 0\n")


def test_decode_rejects_garbage():
    for blob in (b"hello", b"SHEN/2 PING 1.2.3.4 0 0\n", b"SHEN/1 PING x y z\n", b"\xff\xfe"):
        with pytest.raises(PingDecodeError):
            decode_ping(blob)


# --- peer table -------------------------------------------------------------------

def test_on_ping_registers_and_refreshes():
    table = PeerTable()
    assert on_ping(table, inst("10.0.0.2"), 100) is True   # new peer
    assert on_ping(table, inst("10.0.0.2"), 200) is False  # refresh
    assert table.peers["10.0.0.2"].last_seen == 200


def test_detection_boundary_alive_at_timeout_dead_after():
    table = PeerTable()
    on_ping(table, inst("10.0.0.2"), 0)
    assert detect_failures(table, 15000, 15000) == []           # still alive
    assert [i.address for i in detect_failures(table, 15001, 15000)] == ["10.0.0.2"]


def test_dead_peer_reported_once():
    table = PeerTable()
    on_ping(table, inst("10.0.0.2"), 0)
    assert detect_failures(table, 20000, 15000) != []
    assert detect_failures(table, 30000, 15000) == []


def test_revival_after_death():
    table = PeerTable()
    on_ping(table, inst("10.0.0.2"), 0)
    detect_failures(table, 20000, 15000)
    assert on_ping(table, inst("10.0.0.2"), 21000) is True


# --- election ------------------------------------------------------------------

OCTETS = (12, 54, 201)


def test_elect_master_all_subsets_brute_force():
    ids = {o: inst(f"192.168.1.{o}") for o in OCTETS}
    for size in range(1, len(OCTETS) + 1):
        for subset in itertools.combinations(OCTETS, size):
            winner = elect_master([ids[o] for o in subset])
            assert winner.last_octet == max(subset)  # enumeration oracle


def test_elect_master_failover_to_next_octet():
    alive = [inst("192.168.1.12"), inst("192.168.1.54")]
    assert elect_master(alive).last_octet == 54


def test_elect_master_tie_breaks_on_full_address():
    a, b = inst("10.0.0.7"), inst("10.0.1.7")
    assert elect_master([a, b]) == b
    assert elect_master([b, a]) == b  # order independent


def test_elect_master_empty_set_errors():
    with pytest.raises(ValueError):
        elect_master([])


@given(st.sets(st.integers(0, 255), min_size=1, max_size=6))
def test_election_agreement_is_order_independent(octets):
    ids = [inst(f"10.0.0.{o}") for o in octets]
    winners = {elect_master(perm).address
               for perm in itertools.permutations(ids)} if len(ids) <= 4 else {
        elect_master(ids).address, elect_master(list(reversed(ids))).address}
    assert len(winners) == 1


# --- role transitions -------------------------------------------------------------

def test_standby_becomes_master_when_alone():
    state = ClusterState(self_id=inst("192.168.1.54"))
    new, commands = role_transition(state, [], ["ingest"])
    assert new.role == "master"
    assert new.epoch == 1
    assert commands == [("enable", "ingest")]


def test_master_steps_down_when_higher_octet_recovers():
    state = ClusterState(self_id=inst("192.168.1.54"), role="master", epoch=1)
    new, commands = role_transition(state, [inst("192.168.1.201")], ["ingest"])
    assert new.role == "standby"
    assert new.epoch == 2
    assert commands == [("disable", "ingest")]


def test_no_change_no_commands():
    state = ClusterState(self_id=inst("192.168.1.54"))
    new, commands = role_transition(state, [inst("192.168.1.201")], ["ingest"])
    assert new is state
    assert commands == []


# --- transport --------------------------------------------------------------------

def test_loopback_broadcast_excludes_sender_and_honors_delay():
    clock = VirtualClock()
    got = {"a": [], "b": []}
    transport = LoopbackTransport(clock)
    transport.register("1.1.1.1", lambda d: got["a"].append((clock.now, d)))
    transport.register("2.2.2.2", lambda d: got["b"].append((clock.now, d)))
    transport.set_delay("1.1.1.1", "2.2.2.2", 500)
    transport.broadcast("1.1.1.1", b"x")
    clock.run_until(1000)
    assert got["a"] == []
    assert got["b"] == [(500, b"x")]


def test_loopback_drop():
    clock = VirtualClock()
    got = []
    transport = LoopbackTransport(clock)
    transport.register("1.1.1.1", lambda d: None)
    transport.register("2.2.2.2", got.append)
    transport.set_drop("1.1.1.1", "2.2.2.2", True)
    transport.broadcast("1.1.1.1", b"x")
    clock.run_until(10)
    assert got == []


# --- live two-instance behavior ------------------------------------------------------

def redundancy_graph():
    return build_graph(
        make_spec("red", "redundancy",
                  {"electionTimeout": 15000, "controlledFlows": ["ingest"]},
                  flow="control", wires=[[("fctl", 0)], []]),
        make_spec("fctl", "flow-control", flow="control"),
        make_spec("work", "debug", flow="ingest", enabled=False),
    )


def two_instances():
    clock = VirtualClock()
    log = TimelineLog()
    transport = LoopbackTransport(clock)
    low = Engine(redundancy_graph(), instance="low", address="192.168.1.54",
                 clock=clock, log=log, transport=transport, rank=2)
    high = Engine(redundancy_graph(), instance="high", address="192.168.1.201",
                  clock=clock, log=log, transport=transport, rank=3)
    return clock, log, low, high


def roles(log, instance):
    return [(e.time, e.value["role"]) for e in log
            if e.kind == "role-change" and e.instance == instance]


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

    # rebuild the high instance, as a simulated restart would
    transport = low.cluster.transport
    high2 = Engine(redundancy_graph(), instance="high", address="192.168.1.201",
                   clock=clock, log=log, transport=transport, rank=3)
    high2.start()
    clock.run_until(120000)
    assert roles(log, "high")[-1][1] == "master"
    assert roles(log, "low")[-1][1] == "standby"
    assert high2.flow_enabled["ingest"] is True
    assert low.flow_enabled["ingest"] is False


def test_single_instance_elects_itself_at_first_periodic_election():
    clock = VirtualClock()
    log = TimelineLog()
    engine = Engine(redundancy_graph(), instance="solo", address="10.0.0.9",
                    clock=clock, log=log, rank=2)
    engine.start()
    clock.run_until(30000)
    assert roles(log, "solo") == [(15000, "master")]


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
    assert list(low.cluster.peers.peers) == ["192.168.1.201"]
    assert roles(log, "high") == [(0, "master")]
    assert low.flow_enabled["ingest"] is False
