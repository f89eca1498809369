"""Multi-instance redundancy: ping protocol, failure detection, master election.

The election needs no ballot exchange. Every instance broadcasts pings,
keeps a liveness table of its peers, and computes the winner locally as a
pure function of the alive set (highest last address octet, full address as
tie-break). Because every instance evaluates the same function over the
same set, they agree without further messages.

Wire protocol: ASCII lines over datagrams,

    SHEN/1 PING <address> <epoch> <virtual-ms>\\n

Unknown verbs are ignored with a log line.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Optional

logger = logging.getLogger(__name__)

DEFAULT_ELECTION_TIMEOUT = 15_000

ROLE_MASTER = "master"
ROLE_STANDBY = "standby"


class PingDecodeError(ValueError):
    pass


@dataclass(frozen=True)
class InstanceId:
    address: str
    last_octet: int
    name: str

    @classmethod
    def from_address(cls, address: str, name: Optional[str] = None) -> "InstanceId":
        parts = address.split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted-quad address: {address!r}")
        octets = []
        for p in parts:
            if not p.isdigit() or not 0 <= int(p) <= 255:
                raise ValueError(f"bad octet {p!r} in {address!r}")
            octets.append(int(p))
        return cls(address=address, last_octet=octets[3], name=name or address)


@dataclass
class PeerInfo:
    instance: InstanceId
    last_seen: int
    alive: bool = True


@dataclass
class PeerTable:
    peers: dict = field(default_factory=dict)  # address -> PeerInfo

    def alive_instances(self) -> list[InstanceId]:
        return [p.instance for p in self.peers.values() if p.alive]


@dataclass(frozen=True)
class ClusterState:
    self_id: InstanceId
    role: str = ROLE_STANDBY
    epoch: int = 0
    election_timeout: int = DEFAULT_ELECTION_TIMEOUT


# --- wire protocol ---------------------------------------------------------

def encode_ping(self_id: InstanceId, epoch: int, now: int) -> bytes:
    return f"SHEN/1 PING {self_id.address} {epoch} {now}\n".encode("ascii")


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


# --- pure cluster operations -------------------------------------------------

def on_ping(table: PeerTable, peer: InstanceId, now: int) -> bool:
    """Record a ping. Returns True when the peer is new or back from dead."""
    info = table.peers.get(peer.address)
    if info is None:
        table.peers[peer.address] = PeerInfo(peer, now, True)
        return True
    revived = not info.alive
    info.last_seen = now
    info.alive = True
    return revived


def detect_failures(table: PeerTable, now: int, election_timeout: int) -> list[InstanceId]:
    """Flip peers silent for longer than the timeout; each is reported once.

    A peer is still alive at exactly last_seen + timeout and dead one
    virtual millisecond later.
    """
    newly_dead = []
    for info in table.peers.values():
        if info.alive and now - info.last_seen > election_timeout:
            info.alive = False
            newly_dead.append(info.instance)
    return newly_dead


def elect_master(alive: Iterable[InstanceId]) -> InstanceId:
    """Winner is the highest last octet; full-address order breaks ties."""
    candidates = list(alive)
    if not candidates:
        raise ValueError("cannot elect a master from an empty alive set")
    return max(candidates, key=lambda i: (i.last_octet, i.address))


def role_transition(state: ClusterState, alive: Iterable[InstanceId],
                    controlled_flows: Iterable[str] = ()) -> tuple[ClusterState, list[tuple[str, str]]]:
    """Recompute the role from the alive set (self is always alive).

    Returns the next state plus enable/disable commands for the controlled
    flow-groups; the epoch only advances on an actual transition.
    """
    winner = elect_master(list(alive) + [state.self_id])
    is_master = winner.address == state.self_id.address
    if is_master and state.role != ROLE_MASTER:
        new = replace(state, role=ROLE_MASTER, epoch=state.epoch + 1)
        return new, [("enable", f) for f in controlled_flows]
    if not is_master and state.role == ROLE_MASTER:
        new = replace(state, role=ROLE_STANDBY, epoch=state.epoch + 1)
        return new, [("disable", f) for f in controlled_flows]
    return state, []


# --- transport ---------------------------------------------------------------

class LoopbackTransport:
    """In-memory datagram fabric with scriptable per-link drop and delay."""

    def __init__(self, clock):
        self.clock = clock
        self._endpoints: dict[str, tuple[Callable[[bytes], None], int]] = {}
        self._delays: dict[tuple[str, str], int] = {}
        self._drops: dict[tuple[str, str], bool] = {}

    def register(self, address: str, handler: Callable[[bytes], None], rank: int = 0) -> None:
        self._endpoints[address] = (handler, rank)

    def set_delay(self, src: str, dst: str, delay_ms: int) -> None:
        self._delays[(src, dst)] = delay_ms

    def set_drop(self, src: str, dst: str, drop: bool) -> None:
        self._drops[(src, dst)] = drop

    def send(self, src: str, dst: str, data: bytes) -> None:
        entry = self._endpoints.get(dst)
        if entry is None or self._drops.get((src, dst)):
            return
        handler, rank = entry
        delay = self._delays.get((src, dst), 0)
        self.clock.after(delay, partial(handler, data), rank=rank)

    def broadcast(self, src: str, data: bytes) -> None:
        for dst in self._endpoints:
            if dst != src:
                self.send(src, dst, data)


# --- runtime agent -----------------------------------------------------------

class ClusterAgent:
    """Per-engine cluster runtime: pings, liveness timers, elections.

    Elections run whenever the alive set could have changed (a peer expires
    or reappears) and on a periodic tick every election timeout. Listeners
    registered by redundancy nodes get (role, epoch, commands) on every
    transition.
    """

    def __init__(self, engine, self_id: InstanceId, election_timeout: int,
                 transport: Optional[LoopbackTransport] = None,
                 controlled_flows: Iterable[str] = (), role_node: str = "cluster"):
        self.engine = engine
        self.transport = transport
        self.state = ClusterState(self_id=self_id, election_timeout=election_timeout)
        self.peers = PeerTable()
        self.controlled_flows = list(controlled_flows)
        self.role_node = role_node
        self.ping_period = max(1, election_timeout // 5)
        self._listeners: list[Callable[[str, int, list], None]] = []
        self._expiry: dict[str, object] = {}
        self._peer_ids: dict[str, InstanceId] = {}  # address -> parsed id, valid ones only
        # One guarded callback per timer kind, shared by every timer of that kind.
        self._ping_tick_cb = engine.guard(self._ping_tick)
        self._election_cb = engine.guard(self._periodic_election)
        self._expiry_cb = engine.guard(self._expiry_check)
        # Register at construction so a boot ping from an instance that
        # starts first still reaches instances created later in the same
        # setup pass; deliveries are scheduled events, nothing fires early.
        if self.transport is not None:
            self.transport.register(self.self_id.address,
                                    engine.guard(self.receive_datagram),
                                    rank=engine.rank_deliver)

    @property
    def role(self) -> str:
        return self.state.role

    @property
    def self_id(self) -> InstanceId:
        return self.state.self_id

    def add_listener(self, fn: Callable[[str, int, list], None]) -> None:
        self._listeners.append(fn)

    def start(self) -> None:
        clock = self.engine.clock
        self._broadcast_ping()
        clock.after(self.ping_period, self._ping_tick_cb, rank=self.engine.rank_timer)
        clock.after(self.state.election_timeout, self._election_cb, rank=self.engine.rank_timer)

    # --- timers --------------------------------------------------------------
    def _ping_tick(self) -> None:
        self._broadcast_ping()
        self.engine.clock.after(self.ping_period, self._ping_tick_cb, rank=self.engine.rank_timer)

    def _periodic_election(self) -> None:
        self.run_election("election-result")
        self.engine.clock.after(self.state.election_timeout, self._election_cb,
                                rank=self.engine.rank_timer)

    def _broadcast_ping(self) -> None:
        if self.transport is not None:
            self.transport.broadcast(self.self_id.address,
                                     encode_ping(self.self_id, self.state.epoch,
                                                 self.engine.clock.now))

    # --- datagram path ---------------------------------------------------------
    def receive_datagram(self, data: bytes) -> None:
        try:
            address, epoch, sent_at = decode_ping(data)
        except PingDecodeError as exc:
            logger.info("ignoring datagram: %s", exc)
            return
        if address == self.self_id.address:
            return
        peer = self._peer_id(address)
        if peer is None:
            return
        now = self.engine.clock.now
        revived = on_ping(self.peers, peer, now)
        self._arm_expiry(address, now)
        if revived:
            self.run_election("master-recovered")

    def _peer_id(self, address: str) -> Optional[InstanceId]:
        """The cached id of a ping's sender; None, logged, when the address is bad."""
        peer = self._peer_ids.get(address)
        if peer is None:
            try:
                peer = InstanceId.from_address(address)
            except ValueError as exc:
                logger.info("ignoring datagram: %s", exc)
                return None
            self._peer_ids[address] = peer
        return peer

    def _arm_expiry(self, address: str, last_seen: int) -> None:
        clock = self.engine.clock
        old = self._expiry.get(address)
        if old is not None:
            clock.cancel(old)
        fire_at = last_seen + self.state.election_timeout + 1
        self._expiry[address] = clock.at(fire_at, self._expiry_cb, rank=self.engine.rank_timer)

    def _expiry_check(self) -> None:
        dead = detect_failures(self.peers, self.engine.clock.now, self.state.election_timeout)
        if dead:
            self.run_election("election-result")

    # --- elections ----------------------------------------------------------
    def run_election(self, reason: str) -> None:
        alive = self.peers.alive_instances()
        new_state, commands = role_transition(self.state, alive, self.controlled_flows)
        changed = new_state.role != self.state.role
        self.state = new_state
        if changed:
            self.engine.log.add(self.engine.clock.now, self.engine.instance, "role-change",
                                self.role_node,
                                value={"role": new_state.role, "epoch": new_state.epoch,
                                       "reason": reason})
            for fn in self._listeners:
                fn(new_state.role, new_state.epoch, commands)
