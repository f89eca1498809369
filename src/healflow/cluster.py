"""Multi-instance redundancy: ping protocol, failure detection, master election.

The election needs no ballot exchange. Every instance broadcasts pings,
keeps a liveness map of its peers, and computes the winner locally as a
pure function of the alive set: the largest election_key, that is the
highest last address octet with the full address as tie-break. Because
every instance evaluates the same function over the same set, they agree
without further messages.

Wire protocol: ASCII lines over datagrams,

    SHEN/1 PING <address> <epoch> <virtual-ms>\\n

Unknown verbs are ignored with a log line.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Callable

logger = logging.getLogger(__name__)

ROLE_MASTER = "master"
ROLE_STANDBY = "standby"


class PingDecodeError(ValueError):
    pass


def election_key(address) -> tuple[int, str]:
    """(last octet, address) of a dotted-quad address; ValueError for anything else."""
    parts = address.split(".") if isinstance(address, str) else ()
    if len(parts) != 4 or not all(p.isascii() and p.isdigit() and int(p) <= 255 for p in parts):
        raise ValueError(f"not a dotted-quad address: {address!r}")
    return int(parts[3]), address


# --- wire protocol ---------------------------------------------------------

def encode_ping(address: str, epoch: int, now: int) -> bytes:
    return f"SHEN/1 PING {address} {epoch} {now}\n".encode("ascii")


# Not memoised: a ping taken at send time is never decoded, so few repeat.
def decode_ping(data: bytes) -> tuple[str, int, int]:
    """Returns (address, epoch, virtual-ms); raises PingDecodeError otherwise."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise PingDecodeError("datagram is not ASCII") from exc
    parts = text.strip().split(" ")
    if len(parts) != 5 or parts[0] != "SHEN/1":
        raise PingDecodeError(f"malformed datagram: {text.strip()!r}")
    if parts[1] != "PING":
        raise PingDecodeError(f"unknown verb {parts[1]!r}")
    try:
        return parts[2], int(parts[3]), int(parts[4])
    except ValueError as exc:
        raise PingDecodeError(f"malformed datagram: {text.strip()!r}") from exc


# --- transport ---------------------------------------------------------------

class LoopbackTransport:
    """In-memory datagram fabric between ClusterAgents, with per-link drop.

    send() schedules every datagram event: the agent's receive_datagram at
    its delivery rank, at the send's virtual ms; ping() may instead hand a
    periodic ping to the agent at once.
    """

    def __init__(self, clock):
        self.clock = clock
        self._agents: dict[str, ClusterAgent] = {}
        self._drops: dict[tuple[str, str], bool] = {}

    def register(self, agent: ClusterAgent) -> None:
        self._agents[agent.address] = agent

    def set_drop(self, src: str, dst: str, drop: bool) -> None:
        self._drops[(src, dst)] = drop

    def send(self, src: str, dst: str, data: bytes) -> None:
        agent = self._agents.get(dst)
        if agent is None or self._drops.get((src, dst)):
            return
        self.clock.after(0, partial(agent.receive_datagram, data), agent.engine.rank_deliver)

    def broadcast(self, src: str, data: bytes) -> None:
        for dst in self._agents:
            if dst != src:
                self.send(src, dst, data)

    def ping(self, src: str, data: bytes) -> None:
        """Broadcast a periodic ping: as broadcast(), but an agent may take it
        at once (ClusterAgent.take_ping), reserving the event's sequence.

        The event would only refresh the sender's peer entry and move its
        expiry, neither of which node code reads. The expiry is at the
        agent's cluster rank, where it can tie only with the agent's tick and
        boot election, drawn at other ms, and other expiries, each of which
        scans every peer. So the ping logs the bytes its event would, whatever
        deliveries to the agent are pending.
        """
        for dst, agent in self._agents.items():
            if dst == src or self._drops.get((src, dst)):
                continue
            if not agent.take_ping(src):
                self.send(src, dst, data)


# --- runtime agent -----------------------------------------------------------

class ClusterAgent:
    """Per-engine cluster runtime: pings, liveness timers, elections.

    The agent holds all cluster state as plain attributes: its `role` and
    `epoch`, `election_timeout` and `ping_period`, its own election `key`,
    and `peers`, a map from address to (election key, last ping time,
    alive). A peer is alive until one virtual millisecond past
    last ping + election timeout. Hearing an alive peer moves its expiry
    timer through VirtualClock.rearm, which keeps a pending timer's heap
    entry; the timer fires once, at the last ping's expiry time.

    A ping arrives as a receive_datagram event, which the transport's send()
    schedules for this agent as its endpoint, except a periodic ping from a
    peer it holds alive: the transport hands that one over at send time
    (take_ping), refreshing the peer with no clock event. Joins, the boot
    ping and raw datagrams keep theirs. The agent's ping tick, boot election
    and peer expiries run at the engine's cluster rank, after its node timers.

    The agent is configured by the engine's first redundancy node, `spec`:
    its electionTimeout sets the timeouts, and its id is the node of every
    role-change entry. It pings from the engine's address over its world's transport.

    Elections run whenever the alive set could have changed (a peer expires
    or appears) and once at boot, one election timeout after start, so that
    an instance that hears no peer claims mastership. The role is a function
    of the alive set, so after the boot election no periodic one could
    change it. The epoch advances only on a role change, which logs one
    role-change entry and calls the listeners registered by redundancy nodes
    with (role, epoch). Callbacks of a halted engine do nothing.
    """

    def __init__(self, engine, spec):
        self.engine = engine
        self.address = engine.address
        self.key = election_key(self.address)
        self.role = ROLE_STANDBY
        self.epoch = 0
        self.election_timeout = spec.config["electionTimeout"]
        self.ping_period = max(1, self.election_timeout // 5)
        self.peers: dict[str, tuple[tuple[int, str], int, bool]] = {}
        self.transport = engine.world.transport
        self.role_node = spec.id
        self._listeners: list[Callable[[str, int], None]] = []
        self._expiry: dict[str, list] = {}  # address -> pending expiry clock entry
        # Register at construction, before any instance of the setup pass
        # starts, so every boot ping reaches every agent; nothing fires early.
        self.transport.register(self)

    def add_listener(self, fn: Callable[[str, int], None]) -> None:
        self._listeners.append(fn)

    def start(self) -> None:
        clock = self.engine.clock
        # Every boot ping is an event: start() may run inside a fault, and a
        # later fault at the same ms may halt a receiver before it lands.
        self.transport.broadcast(self.address, encode_ping(self.address, self.epoch, clock.now))
        clock.after(self.ping_period, self._ping_tick, rank=self.engine.rank_cluster)
        clock.after(self.election_timeout, self._boot_election, rank=self.engine.rank_cluster)

    # --- timers --------------------------------------------------------------
    def _ping_tick(self) -> None:
        if self.engine.halted:
            return
        clock = self.engine.clock
        self.transport.ping(self.address, encode_ping(self.address, self.epoch, clock.now))
        clock.after(self.ping_period, self._ping_tick, rank=self.engine.rank_cluster)

    def _boot_election(self) -> None:
        if not self.engine.halted:
            self.run_election("election-result")

    # --- datagram path ---------------------------------------------------------
    def receive_datagram(self, data: bytes) -> None:
        """Record a peer's ping; a new or revived peer triggers an election."""
        if self.engine.halted:
            return
        try:
            address, epoch, sent_at = decode_ping(data)
        except PingDecodeError as exc:
            logger.info("ignoring datagram: %s", exc)
            return
        if address == self.address:
            return
        peer = self.peers.get(address)
        if peer is None:
            try:
                key = election_key(address)
            except ValueError as exc:
                logger.info("ignoring datagram: %s", exc)
                return
            joined = True
        else:
            key, _, alive = peer
            joined = not alive
        self._heard(address, key)
        if joined:
            self.run_election("master-recovered")

    def take_ping(self, address: str) -> bool:
        """Take a periodic ping from `address` at send time if its delivery
        event could do no more than refresh an alive peer, or nothing at all
        in a halted engine; reserves that event's sequence. False otherwise."""
        peer = self.peers.get(address)
        halted = self.engine.halted
        if not halted and (peer is None or not peer[2]):
            return False
        self.engine.clock.reserve()
        if not halted:
            self._heard(address, peer[0])
        return True

    def _heard(self, address: str, key: tuple[int, str]) -> None:
        """Mark the peer alive as of now and move its expiry to one ms past the timeout."""
        clock = self.engine.clock
        now = clock.now
        self.peers[address] = (key, now, True)
        self._expiry[address] = clock.rearm(self._expiry.get(address),
                                            now + self.election_timeout + 1, self._expire,
                                            self.engine.rank_cluster)

    def _expire(self) -> None:
        """Mark every peer silent for longer than the timeout dead, once."""
        if self.engine.halted:
            return
        now = self.engine.clock.now
        died = False
        for address, (key, last_ping, alive) in self.peers.items():
            if alive and now - last_ping > self.election_timeout:
                self.peers[address] = (key, last_ping, False)
                died = True
        if died:
            self.run_election("election-result")

    # --- elections ----------------------------------------------------------
    def run_election(self, reason: str) -> None:
        """Take the role the alive set gives this agent; log and notify on a change."""
        alive = [key for key, _, up in self.peers.values() if up]
        role = ROLE_MASTER if max(alive, default=self.key) <= self.key else ROLE_STANDBY
        if role == self.role:
            return
        self.role = role
        self.epoch += 1
        self.engine.log.add(self.engine.clock.now, self.engine.instance, "role-change",
                            self.role_node,
                            value={"role": role, "epoch": self.epoch, "reason": reason})
        for fn in self._listeners:
            fn(role, self.epoch)
