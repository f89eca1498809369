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
    """In-memory datagram fabric with scriptable per-link drop."""

    def __init__(self, clock):
        self.clock = clock
        self._endpoints: dict[str, tuple[Callable[[bytes], None], int]] = {}
        self._drops: dict[tuple[str, str], bool] = {}

    def register(self, address: str, handler: Callable[[bytes], None], rank: int) -> None:
        self._endpoints[address] = (handler, rank)

    def set_drop(self, src: str, dst: str, drop: bool) -> None:
        self._drops[(src, dst)] = drop

    def send(self, src: str, dst: str, data: bytes) -> None:
        entry = self._endpoints.get(dst)
        if entry is None or self._drops.get((src, dst)):
            return
        handler, rank = entry
        self.clock.after(0, partial(handler, data), rank=rank)

    def broadcast(self, src: str, data: bytes) -> None:
        for dst in self._endpoints:
            if dst != src:
                self.send(src, dst, data)


# --- runtime agent -----------------------------------------------------------

class ClusterAgent:
    """Per-engine cluster runtime: pings, liveness timers, elections.

    The agent holds all cluster state as plain attributes: its `role` and
    `epoch`, `election_timeout` and `ping_period`, its own election `key`,
    and `peers`, a map from address to (election key, last ping time,
    alive). A peer is alive until one virtual millisecond past
    last ping + election timeout; its expiry timer is re-armed on every ping.

    The agent is configured by the engine's first redundancy node, `spec`:
    its electionTimeout sets the timeouts, and its id is the node of every
    role-change entry. It pings from the engine's address over its world's transport.

    Elections run whenever the alive set could have changed (a peer expires
    or appears) and on a periodic tick every election timeout. The epoch
    advances only on a role change, which logs one role-change entry and
    calls the listeners registered by redundancy nodes with (role, epoch).
    Callbacks of a halted engine do nothing.
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
        # Register at construction so a boot ping from an instance that
        # starts first still reaches instances created later in the same
        # setup pass; deliveries are scheduled events, nothing fires early.
        self.transport.register(self.address, self.receive_datagram, rank=engine.rank_deliver)

    def add_listener(self, fn: Callable[[str, int], None]) -> None:
        self._listeners.append(fn)

    def start(self) -> None:
        clock = self.engine.clock
        self._broadcast_ping()
        clock.after(self.ping_period, self._ping_tick, rank=self.engine.rank_timer)
        clock.after(self.election_timeout, self._periodic_election, rank=self.engine.rank_timer)

    # --- timers --------------------------------------------------------------
    def _ping_tick(self) -> None:
        if self.engine.halted:
            return
        self._broadcast_ping()
        self.engine.clock.after(self.ping_period, self._ping_tick, rank=self.engine.rank_timer)

    def _periodic_election(self) -> None:
        if self.engine.halted:
            return
        self.run_election("election-result")
        self.engine.clock.after(self.election_timeout, self._periodic_election,
                                rank=self.engine.rank_timer)

    def _broadcast_ping(self) -> None:
        self.transport.broadcast(self.address,
                                 encode_ping(self.address, self.epoch, self.engine.clock.now))

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
        clock = self.engine.clock
        now = clock.now
        self.peers[address] = (key, now, True)
        old = self._expiry.get(address)
        if old is not None:
            clock.cancel(old)
        self._expiry[address] = clock.at(now + self.election_timeout + 1, self._expire,
                                         rank=self.engine.rank_timer)
        if joined:
            self.run_election("master-recovered")

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
