import contextlib
import itertools
import json
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from healflow.cluster import (ClusterAgent, LoopbackTransport, PingDecodeError, decode_ping,
                              election_key, encode_ping)
from healflow.core.clock import VirtualClock
from healflow.core.graph import validate_graph
from healflow.sim.runner import Simulation
from healflow.sim.scenario import parse_scenario
from healflow.sim.world import RANK_FAULT, RANK_WORLD, VirtualDevice, World
from tests.conftest import (build_graph, examples, make_engine, make_spec,
                            shuffled_cluster_ties)


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
    engine = make_engine(redundancy_graph(), instance="me", address=address)
    engine.start()
    return engine


def ping(engine, address, at):
    """Advance the engine's clock to `at`, then hand its agent a ping from `address`."""
    engine.run_until(at)
    engine.cluster.receive_datagram(encode_ping(address, 0, at))


def peers(agent):
    """address -> (election key, last ping time, alive) for every peer the
    agent has heard. A held view's time is its group's latest tick that has
    fired, as the transport reads it; an own view's is its expiry's due time
    less the timeout and a ms."""
    view = {}
    for address, entry in agent._expiry.items():
        if address in agent._held:
            last = agent._held[address].last_tick(agent.engine.clock)
        else:
            due = entry[4][0] if entry[3] is not None and entry[4] is not None else entry[0]
            last = due - agent.election_timeout - 1
        view[address] = (election_key(address), last, address in agent._alive)
    return view


def views(world):
    """peers() of each engine's agent in the world, by instance name."""
    return {name: peers(engine.cluster) for name, engine in world.engines.items()}


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
    for blob in (b"hello", b"SHEN/2 PING 1.2.3.4 0 0\n", b"SHEN/1 PING x y z\n", b"\xff\xfe",
                 b"SHEN/1 PING 10.0.0.999 0 0\n"):
        with pytest.raises(PingDecodeError):
            decode_ping(blob)


def test_decode_is_repeatable_and_raises_on_every_bad_datagram():
    blobs = [encode_ping(f"10.0.0.{octet}", 1, octet) for octet in range(48)]
    for _ in range(2):
        assert [decode_ping(b) for b in blobs] == [
            (f"10.0.0.{octet}", 1, octet) for octet in range(48)]
    for _ in range(2):
        with pytest.raises(PingDecodeError):
            decode_ping(b"SHEN/1 PING x y z\n")


# --- peers and liveness -------------------------------------------------------------

def test_on_ping_registers_and_refreshes():
    engine = agent()
    elections = spy_elections(engine)
    ping(engine, HIGHER, 100)   # new peer: election
    ping(engine, HIGHER, 200)   # refresh: none
    assert elections == [(100, "master-recovered")]
    assert peers(engine.cluster)[HIGHER] == (election_key(HIGHER), 200, True)


def test_detection_boundary_alive_at_timeout_dead_after():
    engine = agent()
    ping(engine, HIGHER, 0)
    ping(engine, "192.168.1.12", 1)
    engine.run_until(15000)
    assert peers(engine.cluster)[HIGHER][2] is True    # still alive at last + timeout
    engine.run_until(15001)
    # HIGHER's own expiry marks only HIGHER; the other is at exactly last + timeout
    assert peers(engine.cluster)[HIGHER][2] is False
    assert peers(engine.cluster)["192.168.1.12"][2] is True
    engine.run_until(15002)
    assert peers(engine.cluster)["192.168.1.12"][2] is False


def test_two_peers_expiring_at_the_same_ms_log_one_role_change():
    """Each own view's expiry marks only its own peer dead and runs an
    election; the first leaves a higher peer alive, so only the second
    changes the role."""
    engine = agent()
    ping(engine, HIGHER, 0)
    ping(engine, "192.168.1.200", 0)
    engine.run_until(15000)
    assert transitions(engine) == []
    engine.run_until(15001)
    assert transitions(engine) == [
        (15001, {"role": "master", "epoch": 1, "reason": "election-result"})]
    assert [alive for _, _, alive in peers(engine.cluster).values()] == [False, False]


def test_peer_pinging_every_ms_dies_exactly_one_ms_past_its_last_ping_plus_timeout():
    engine = agent()
    for t in range(300):
        ping(engine, HIGHER, t)
    engine.run_until(299 + 15000)
    assert peers(engine.cluster)[HIGHER][2] is True
    assert transitions(engine) == []
    engine.run_until(299 + 15001)
    assert peers(engine.cluster)[HIGHER][2] is False
    assert transitions(engine) == [
        (299 + 15001, {"role": "master", "epoch": 1, "reason": "election-result"})]


def test_dead_peer_reported_once():
    engine = agent()
    notified = spy_listener(engine)
    ping(engine, HIGHER, 0)
    engine.run_until(60000)   # 45 s past the death
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
    assert peers(engine.cluster)[HIGHER] == (election_key(HIGHER), 21000, True)
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
                engine.run_until(15000)   # the boot election
                expected = "master" if own == max(subset + (own,)) else "standby"
                assert engine.cluster.role == expected, (own, subset)


def test_elect_master_failover_to_next_octet():
    world = World()
    clock, log = world.clock, world.log
    engines = {o: make_engine(redundancy_graph(), instance=str(o), address=f"192.168.1.{o}",
                              world=world) for o in OCTETS}
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
        others = [a for a in addresses if a != address]
        for peer in data.draw(st.permutations(others)):
            ping(engine, peer, 0)
        engine.run_until(15000)
        if engine.cluster.role == "master":
            masters.append(address)
    assert masters == [max(addresses, key=election_key)]


# --- role transitions -------------------------------------------------------------

@pytest.mark.parametrize("flows", [[1, None], ["ingest", 7], [["ingest"]], [True]])
def test_redundancy_rejects_a_controlled_flow_that_is_not_a_string(flows):
    graph = build_graph(make_spec("red", "redundancy", {"controlledFlows": flows}))
    [problem] = [d.message for d in validate_graph(graph) if d.severity == "error"]
    assert "config 'controlledFlows' must hold strings" in problem


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
    engine.run_until(45000)   # past the boot election, still standby
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

def unstarted_pair():
    """Two agents on one world's transport; neither engine is started, so no ping is sent."""
    world = World()
    a = make_engine(redundancy_graph(), instance="a", address="10.0.0.1", world=world)
    b = make_engine(redundancy_graph(), instance="b", address="10.0.0.2", world=world)
    return world, a, b, datagram_events(world)


def test_loopback_broadcast_excludes_sender():
    world, a, b, events = unstarted_pair()
    world.clock.run_until(500)
    world.transport.broadcast(a.address, b"x")
    world.clock.run_until(1000)
    assert events == [(500, b.rank_deliver)]


def test_loopback_drop():
    world, a, b, events = unstarted_pair()
    world.transport.set_drop(a.address, b.address, True)
    world.transport.broadcast(a.address, b"x")
    world.clock.run_until(10)
    assert events == []


# --- live two-instance behavior ------------------------------------------------------

def two_instances():
    world = World()
    low = make_engine(redundancy_graph(), instance="low", address="192.168.1.54", world=world)
    high = make_engine(redundancy_graph(), instance="high", address="192.168.1.201", world=world)
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


def test_a_stable_pair_elects_on_each_join_and_once_at_boot():
    clock, log, low, high = two_instances()
    low.start()
    high.start()
    elections = {engine.instance: spy_elections(engine) for engine in (low, high)}
    clock.run_until(150000)  # ten election timeouts
    assert elections == {
        name: [(0, "master-recovered"), (15000, "election-result")] for name in elections}
    assert roles(log, "high") == [(0, "master")]


def test_single_instance_elects_itself_at_first_periodic_election():
    engine = make_engine(redundancy_graph(), instance="solo", address="10.0.0.9")
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
    assert list(peers(low.cluster)) == ["192.168.1.201"]
    assert roles(log, "high") == [(0, "master")]
    assert low.flow_enabled["ingest"] is False


def test_malformed_broadcast_is_logged_by_each_receiver(caplog):
    world = World()
    for octet in (12, 54, 201):
        make_engine(redundancy_graph(), instance=str(octet), address=f"192.168.1.{octet}",
                    world=world)
    with caplog.at_level("INFO", logger="healflow.cluster"):
        for _ in range(2):
            world.transport.broadcast("192.168.1.99", b"SHEN/1 PING 192.168.1.99 x 0\n")
            world.clock.run_until(world.clock.now)
    assert [r.getMessage().startswith("ignoring datagram") for r in caplog.records] == [True] * 6


# --- periodic pings taken at send time --------------------------------------------------

def broadcast_ping(transport, src, epoch, period):
    transport.broadcast(src, encode_ping(src, epoch, transport.clock.now))


@contextlib.contextmanager
def eager_pings():
    """Every periodic ping is a delivery event, as a raw broadcast is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LoopbackTransport, "ping", broadcast_ping)
        yield


def shipped_and_eager(drive):
    """Run drive() as shipped and with eager pings; both runs must log the same
    bytes and leave the same peer views. Returns what the shipped run's drive()
    returned, whose first item is its world."""
    shipped = drive()
    with eager_pings():
        eager = drive()
    assert shipped[0].log.to_csv() == eager[0].log.to_csv()
    assert views(shipped[0]) == views(eager[0])
    return shipped


def datagram_events(world):
    """(time, rank) of every datagram delivery event put on the world's clock from now on."""
    events = []
    after = world.clock.after

    def spy(delay, fn, rank):
        if isinstance(fn, partial) and fn.func.__name__ == "receive_datagram":
            events.append((world.clock.now, rank))
        return after(delay, fn, rank)
    world.clock.after = spy
    return events


LOW, HIGH = SELF, HIGHER


def changes(log, instance):
    return [(e.time, e.value) for e in log if e.kind == "role-change" and e.instance == instance]


def started_pair(world=None, low_graph=None):
    """high, then low, started at 0 with a 1 s election timeout: pings every 200 ms."""
    world = world or World()
    high = make_engine(redundancy_graph(1000), instance="high", address=HIGH, world=world)
    low = make_engine(low_graph or redundancy_graph(1000), instance="low", address=LOW,
                      world=world)
    events = datagram_events(world)
    high.start()
    low.start()
    return world, low, high, events


def test_an_alive_peer_is_refreshed_at_send_time_without_an_event():
    def drive():
        world, low, high, events = started_pair()
        world.clock.run_until(10000)
        return world, low, high, events
    world, low, high, events = shipped_and_eager(drive)
    assert events == [(0, low.rank_deliver), (0, high.rank_deliver)]  # the boot pings
    assert peers(low.cluster)[HIGH] == (election_key(HIGH), 10000, True)
    assert peers(high.cluster)[LOW] == (election_key(LOW), 10000, True)
    assert roles(world.log, "high") == [(0, "master")]


def test_a_dropped_link_gets_no_ping_either_way():
    def drive():
        world, low, high, events = started_pair()
        world.clock.run_until(1000)
        world.transport.set_drop(HIGH, LOW, True)
        del events[:]
        world.clock.run_until(1200)
        return world, low, events
    world, low, events = shipped_and_eager(drive)
    assert events == []
    assert peers(low.cluster)[HIGH][1] == 1000


def test_one_running_agent_holds_an_address_and_a_restart_replaces_it():
    """A second running engine at a taken address is refused and leaves the
    first agent's peers holding it alive; a restart there replaces it."""
    def drive():
        world, low, high, events = started_pair()
        world.clock.run_until(1000)
        with pytest.raises(ValueError, match=LOW):
            make_engine(redundancy_graph(1000), instance="low2", address=LOW, world=world)
        world.clock.run_until(3000)
        assert peers(high.cluster)[LOW] == (election_key(LOW), 3000, True)
        restarted = low.restart()
        world.clock.run_until(5000)
        return world, restarted, high
    world, low, high = shipped_and_eager(drive)
    assert world.engines["low"] is low
    assert peers(high.cluster)[LOW] == (election_key(LOW), 5000, True)
    assert peers(low.cluster)[HIGH] == (election_key(HIGH), 5000, True)
    assert roles(world.log, "high") == [(0, "master")]


def test_a_halted_receiver_takes_a_ping_as_its_event_would_by_doing_nothing():
    def drive():
        world, low, high, events = started_pair()
        world.clock.run_until(1000)
        low.halt()
        del events[:]
        world.clock.run_until(1200)
        return world, low, events
    # The eager run schedules one event that does nothing.
    world, low, events = shipped_and_eager(drive)
    assert events == []
    assert peers(low.cluster)[HIGH][1] == 1000


def test_a_ping_from_an_unknown_peer_joins_where_its_event_fires():
    def drive():
        world = World()
        low = make_engine(redundancy_graph(1000), instance="low", address=LOW, world=world)
        low.start()
        world.clock.run_until(1500)  # alone: master at its boot election
        high = make_engine(redundancy_graph(1000), instance="high", address=HIGH, world=world)
        world.transport.set_drop(HIGH, LOW, True)  # low misses high's boot ping
        high.start()
        world.clock.run_until(1600)
        world.transport.set_drop(HIGH, LOW, False)
        events = datagram_events(world)
        world.clock.run_until(1700)
        return world, low, events
    world, low, events = shipped_and_eager(drive)
    assert events == [(1700, low.rank_deliver)]
    assert changes(world.log, "low") == [
        (1000, {"role": "master", "epoch": 1, "reason": "election-result"}),
        (1700, {"role": "standby", "epoch": 2, "reason": "master-recovered"})]


def test_a_ping_from_an_expired_peer_joins_where_its_event_fires():
    def drive():
        world, low, high, events = started_pair()
        world.clock.run_until(1000)
        world.transport.set_drop(HIGH, LOW, True)
        world.clock.run_until(2500)  # high last heard at 1000, dead at 2001
        world.transport.set_drop(HIGH, LOW, False)
        del events[:]
        world.clock.run_until(2600)
        return world, low, events
    world, low, events = shipped_and_eager(drive)
    assert events == [(2600, low.rank_deliver)]
    assert changes(world.log, "low") == [
        (2001, {"role": "master", "epoch": 1, "reason": "election-result"}),
        (2600, {"role": "standby", "epoch": 2, "reason": "master-recovered"})]


LISTENING = build_graph(
    *redundancy_graph(1000).nodes,
    make_spec("s-in", "mqtt-in", {"topic": "s/x"}, flow="control", wires=[[("hb", 0)]]),
    make_spec("hb", "heartbeat", {"timeout": 1001}, flow="control"))


def low_at_2001(log):
    return [(e.kind, e.node) for e in log if e.time == 2001 and e.instance == "low"][:3]


def test_a_world_delivery_pending_at_the_same_ms_leaves_the_ping_taken():
    """A reading to low is pending when high ticks at 1000: it re-arms low's
    heartbeat to 2001 after high's ping, taken at once, re-arms low's expiry
    of high to 2001. Node timers fire before cluster timers, so at 2001 the
    heartbeat fires first, then the expiry makes low master."""
    def drive():
        world = World(devices=[VirtualDevice("s", "nfcReader", "s/x", reads=[(1000, 1.0)])])
        world, low, high, events = started_pair(world, LISTENING)
        world.start_devices()
        world.clock.run_until(500)
        del events[:]
        world.clock.run_until(1000)
        high.halt()
        world.clock.run_until(2100)
        return world, low, events
    world, low, events = shipped_and_eager(drive)
    assert events == []
    assert low_at_2001(world.log) == [("timer", "hb"), ("emit", "hb"), ("role-change", "red")]


def test_a_node_timer_fires_before_a_cluster_expiry_drawn_earlier_at_the_same_ms():
    """High's ping re-arms low's expiry of high to 2001 at 1000, and a reading
    published after the ping re-arms low's heartbeat to 2001: the ping moved
    the expiry first, yet the heartbeat fires first."""
    world, low, high, events = started_pair(low_graph=LISTENING)
    world.clock.run_until(900)  # high's tick at 1000 is scheduled, with the earlier seq
    world.clock.at(1000, partial(world.publish, "s/x", 1.0, "s"), high.rank_cluster)
    world.clock.run_until(1000)
    high.halt()
    world.clock.run_until(2100)
    assert peers(low.cluster)[HIGH] == (election_key(HIGH), 1000, False)
    assert low_at_2001(world.log) == [("timer", "hb"), ("emit", "hb"), ("role-change", "red")]


def run_failover():
    """Three instances with a 1 s election timeout; the master crashes at 3 s
    and restarts at 6 s. Returns the timeline."""
    instances = [{"name": f"i{o}", "address": f"10.0.0.{o}"} for o in (1, 2, 3)]
    script = parse_scenario(json.dumps({"seed": 1, "duration_ms": 10000, "world": {
        "instances": instances}, "events": [
            {"at_ms": 3000, "kind": "instance_crash", "target": "i3"},
            {"at_ms": 6000, "kind": "instance_restart", "target": "i3"}]}))
    return Simulation([redundancy_graph(1000) for _ in instances], script).run()


def test_send_schedules_every_datagram_event_across_a_failover(monkeypatch):
    """Three instances, the master crashes and restarts: every datagram event
    the transport schedules goes through send, one per receive_datagram."""
    counts = {"send": 0, "receive": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(LoopbackTransport, "send", counted("send", LoopbackTransport.send))
    monkeypatch.setattr(ClusterAgent, "receive_datagram",
                        counted("receive", ClusterAgent.receive_datagram))
    log = run_failover()
    assert [(e.time, e.instance) for e in log if e.kind == "role-change" and e.time > 0
            and e.value["role"] == "master"] == [(3801, "i2"), (6000, "i3")]
    assert counts["receive"] > 8  # more than the boot pings: 3 x 2, and 2 at the restart
    assert counts["send"] == counts["receive"]


def test_every_cluster_timer_runs_at_its_engines_delivery_or_cluster_rank(monkeypatch):
    """Datagram events, ping ticks, boot elections and peer expiries, through
    a crash and a restart: each clock entry cluster code makes is owned by an
    agent and sits at its engine's delivery or cluster rank."""
    scheduled = []
    at = VirtualClock.at

    def spy(clock, time, fn, rank):
        func = fn.func if isinstance(fn, partial) else fn
        owner = getattr(func, "__self__", None)
        if isinstance(owner, (ClusterAgent, LoopbackTransport)):
            scheduled.append((owner, func.__name__, rank))
        return at(clock, time, fn, rank)
    monkeypatch.setattr(VirtualClock, "at", spy)
    run_failover()
    assert {name for _, name, _ in scheduled} == {
        "_ping_tick", "_boot_election", "_expire", "receive_datagram"}
    assert [(owner, rank) for owner, _, rank in scheduled if not isinstance(owner, ClusterAgent)
            or rank not in (owner.engine.rank_deliver, owner.engine.rank_cluster)] == []


def calls_over_stable_periods(count):
    """VirtualClock.at and rearm calls and per-receiver refreshes (_heard) over
    20 ping periods of a stable cluster of `count` instances, after boot."""
    world = World()
    engines = [make_engine(redundancy_graph(1000), instance=f"i{n}", address=f"10.0.0.{n}",
                           world=world) for n in range(1, count + 1)]
    for engine in engines:
        engine.start()
    world.clock.run_until(2000)  # past the boot pings, the first ticks and the boot election
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((ClusterAgent, "_heard"), (VirtualClock, "at"),
                            (VirtualClock, "rearm")):
            mp.setattr(owner, name, counted(getattr(owner, name)))
        world.clock.run_until(2000 + 20 * 200)
    assert [e.instance for e in engines if e.cluster.role == "master"] == [f"i{count}"]
    assert [e for e in world.log if e.kind == "role-change" and e.time > 2000] == []
    return calls


def test_a_stable_cluster_fires_no_peer_expiry(monkeypatch):
    """While every peer keeps pinging, no expiry timer fires: a view joins its
    sender's group at the sender's next tick, which drops its own timer."""
    fired = []
    expire = ClusterAgent._expire
    monkeypatch.setattr(ClusterAgent, "_expire", lambda agent, address:
                        fired.append((agent.address, address)) or expire(agent, address))
    world = World()
    for n in (1, 2, 3):
        make_engine(redundancy_graph(1000), instance=f"i{n}", address=f"10.0.0.{n}",
                    world=world).start()
    world.clock.run_until(10000)
    assert fired == []


def test_a_stable_clusters_ping_periods_put_nothing_on_the_clock():
    """Every tick of a stable cluster finds its group with no joiner and
    parks: its ping periods schedule, re-arm and refresh nothing, at any size."""
    assert calls_over_stable_periods(8) == calls_over_stable_periods(16) == []


def watched_graph(election_timeout, heartbeat_timeout):
    """A redundancy pair member whose heartbeat watches a sensor and posts
    alarms to every instance's role-gated ingest group."""
    graph = build_graph(
        make_spec("red", "redundancy",
                  {"electionTimeout": election_timeout, "controlledFlows": ["ingest"]},
                  flow="control", wires=[[("fctl", 0)], []]),
        make_spec("fctl", "flow-control", flow="control"),
        make_spec("s-in", "mqtt-in", {"topic": "s/x"}, flow="watch", wires=[[("hb", 0)]]),
        make_spec("hb", "heartbeat", {"timeout": heartbeat_timeout}, flow="watch",
                  wires=[[], [], [("alarm-out", 0)]]),
        make_spec("alarm-out", "mqtt-out", {"topic": "alarm"}, flow="watch"),
        make_spec("alarm-in", "mqtt-in", {"topic": "alarm"}, flow="ingest", enabled=False,
                  wires=[[("work", 0)]]),
        make_spec("work", "debug", flow="ingest", enabled=False),
    )
    assert [d for d in validate_graph(graph) if d.severity == "error"] == []
    return graph


GHOST = "10.9.9.9"
TIMEOUTS = st.sampled_from([5, 7, 10, 23, 200])


@st.composite
def cluster_programs(draw):
    """A scenario document, each instance's election timeout (one shared, or
    mixed), plus hand-scheduled drop toggles and raw datagrams."""
    count = draw(st.integers(2, 8))
    octets = draw(st.lists(st.integers(1, 254), min_size=count, max_size=count, unique=True))
    instances = [{"name": f"i{o}", "address": f"10.0.{o % 3}.{o}"} for o in octets]
    names = [i["name"] for i in instances]
    addresses = [i["address"] for i in instances]
    timeout = draw(TIMEOUTS)
    timeouts = [timeout] * count
    if draw(st.booleans()):
        timeouts = draw(st.lists(TIMEOUTS, min_size=count, max_size=count))
    duration = draw(st.integers(1, 500))
    at = st.integers(0, duration)
    events = draw(st.lists(st.one_of(
        st.fixed_dictionaries({"at_ms": at,
                               "kind": st.sampled_from(["instance_crash", "instance_restart"]),
                               "target": st.sampled_from(names)}),
        st.fixed_dictionaries({"at_ms": at,
                               "kind": st.sampled_from(["device_offline", "device_online"]),
                               "target": st.just("s")}),
        st.fixed_dictionaries({"at_ms": at, "kind": st.just("net_delay"),
                               "target": st.sampled_from(["s"] + names),
                               "params": st.fixed_dictionaries(
                                   {"delay_ms": st.integers(0, 3)})})), max_size=10))
    scenario = {"seed": 1, "duration_ms": duration, "events": events, "world": {
        "instances": instances,
        "devices": [{"id": "s", "kind": "periodicSensor", "topic": "s/x",
                     "period_ms": draw(st.sampled_from([1, timeout, timeout + 1]))}]}}
    link = st.sampled_from(addresses)
    drops = draw(st.lists(st.tuples(at, link, link, st.booleans()), max_size=6))
    datagram = st.sampled_from([b"junk\n", b"\xff\xfe", b"SHEN/1 PING 10.0.0.999 0 0\n",
                                encode_ping(GHOST, 0, 0)] + [encode_ping(a, 0, 0)
                                                             for a in addresses])
    datagrams = draw(st.lists(st.tuples(at, st.sampled_from([RANK_FAULT, RANK_WORLD]), link,
                                        datagram), max_size=6))
    heartbeat = timeout + draw(st.integers(0, 2))
    return scenario, timeouts, heartbeat, drops, datagrams


def run_program(program):
    """The program's timeline bytes, and its world's views() at the end."""
    scenario, timeouts, heartbeat, drops, datagrams = program
    script = parse_scenario(json.dumps(scenario))
    sim = Simulation([watched_graph(timeout, heartbeat) for timeout in timeouts], script)
    clock, transport = sim.world.clock, sim.world.transport
    for at, src, dst, drop in drops:
        clock.at(at, partial(transport.set_drop, src, dst, drop), RANK_FAULT)
    for at, rank, dst, data in datagrams:
        clock.at(at, partial(transport.send, GHOST, dst, data), rank)
    return sim.run().to_csv(), views(sim.world)


# At 5 i7 takes i200's ping while a reading to i7 is pending, so its expiry
# of i200 draws a seq before the heartbeat the reading re-arms; the crash and
# the pause at 6 leave both due at 11, where the heartbeat must fire first.
TIED_EXPIRY = ({"seed": 1, "duration_ms": 20, "events": [
    {"at_ms": 6, "kind": "instance_crash", "target": "i200"},
    {"at_ms": 6, "kind": "device_offline", "target": "s"}], "world": {
    "instances": [{"name": "i200", "address": "10.0.2.200"},
                  {"name": "i7", "address": "10.0.1.7"}],
    "devices": [{"id": "s", "kind": "periodicSensor", "topic": "s/x", "period_ms": 5}]}},
    [5, 5], 6, [], [])

I200, I7, I54 = "10.0.2.200", "10.0.1.7", "10.0.0.54"
THREE = {"instances": [{"name": "i200", "address": I200}, {"name": "i7", "address": I7},
                       {"name": "i54", "address": I54}],
         "devices": [{"id": "s", "kind": "periodicSensor", "topic": "s/x", "period_ms": 5}]}

# i7 pings every ms until its crash at 10, which hands i200 and i54 their
# views of it, due to expire at 9 + 5 + 1 = 15, the ms i7 restarts: each
# hears the boot ping at its delivery rank, before that expiry's cluster rank.
RESTART_AT_EXPIRY = ({"seed": 1, "duration_ms": 30, "events": [
    {"at_ms": 10, "kind": "instance_crash", "target": "i7"},
    {"at_ms": 15, "kind": "instance_restart", "target": "i7"}], "world": THREE},
    [5, 5, 5], 6, [], [])

# i200 ticks at 4 and crashes at 7; a raw datagram with its address at 6
# gives i7 its own view of i200 (dead at 30), while i54 holds the tick's
# (dead at 28).
DIVERGED = ({"seed": 1, "duration_ms": 40, "events": [
    {"at_ms": 7, "kind": "instance_crash", "target": "i200"}], "world": THREE},
    [23, 23, 23], 23, [], [(6, RANK_WORLD, I7, encode_ping(I200, 0, 0))])

# The link from i200 to i7 drops at 5 and comes back at 6, between i200's
# ticks at 4 and 8; i200 crashes at 9.
DROP_BETWEEN_TICKS = ({"seed": 1, "duration_ms": 40, "events": [
    {"at_ms": 9, "kind": "instance_crash", "target": "i200"}], "world": THREE},
    [23, 23, 23], 23, [(5, I200, I7, True), (6, I200, I7, False)], [])

# i200 pings every 40 ms, but i7 and i54 time a peer out after 5 and 23 ms:
# after each tick each kills i200 at its own deadline (i54 becoming master)
# and takes i200's next ping as a join.
MIXED_TIMEOUTS = ({"seed": 1, "duration_ms": 100, "events": [], "world": THREE},
                  [200, 5, 23], 23, [], [])

# With 23 ms timeouts every instance ticks at 4, 8, 12, ..., and each tick
# from 4 on finds no joiner, so the ticks from 8 on are implied. Each engine
# owns ranks deliver, timer, cluster: i200 6-8, i7 9-11, i54 12-14.
# i200 crashes at 8, at fault rank, before its tick at 8: i7 and i54 take
# the tick at 4 as their view of i200, dead at 28.
CRASH_ON_TICK = ({"seed": 1, "duration_ms": 40, "events": [
    {"at_ms": 8, "kind": "instance_crash", "target": "i200"}], "world": THREE},
    [23, 23, 23], 23, [], [])

# At 8 a ping with i200's address reaches i54 at rank 12, after i200's tick
# at 8 (rank 8); at 12 one with i54's address reaches i7 at rank 9, before
# i54's tick at 12 (rank 14). Each receiver takes its view as its own.
DATAGRAMS_ON_TICKS = ({"seed": 1, "duration_ms": 40, "events": [], "world": THREE},
                      [23, 23, 23], 23, [],
                      [(8, 12, I54, encode_ping(I200, 0, 0)), (12, 9, I7, encode_ping(I54, 0, 0))])


@given(cluster_programs())
@example(TIED_EXPIRY)
@example(RESTART_AT_EXPIRY)
@example(DIVERGED)
@example(DROP_BETWEEN_TICKS)
@example(MIXED_TIMEOUTS)
@example(CRASH_ON_TICK)
@example(DATAGRAMS_ON_TICKS)
@settings(max_examples=examples(60), deadline=None)
def test_periodic_pings_taken_at_send_time_log_what_their_events_would(program):
    """Instances with one or mixed election timeouts crash and restart at any
    ms, links drop and heal at fault rank, a sensor's readings (delayed, or
    paused) and the heartbeat timers they re-arm tie with peer expiries, and
    raw datagrams, some malformed, arrive at fault and world rank: the
    timeline bytes and every agent's final peer views match the eager fabric's."""
    shipped = run_program(program)
    with eager_pings():
        eager = run_program(program)
    assert shipped == eager


@given(cluster_programs())
@example(TIED_EXPIRY)
@example(RESTART_AT_EXPIRY)
@example(DIVERGED)
@example(DROP_BETWEEN_TICKS)
@example(MIXED_TIMEOUTS)
@example(CRASH_ON_TICK)
@example(DATAGRAMS_ON_TICKS)
@settings(max_examples=examples(60), deadline=None)
def test_cluster_timer_ties_fired_in_any_order_log_the_same_bytes(program):
    """The tie-order contract of core.clock: ping ticks, boot elections and
    peer expiries tied at one engine's cluster rank, fired in three seeded
    random orders, log the bytes and leave the peer views that creation order does."""
    expected = run_program(program)
    for seed in range(3):
        with shuffled_cluster_ties(seed):
            assert run_program(program) == expected
