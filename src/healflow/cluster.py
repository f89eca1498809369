"""Multi-instance redundancy: ping protocol, failure detection, master election.

The election needs no ballot exchange. Every instance broadcasts pings,
keeps a liveness map of its peers, and computes the winner locally as a
pure function of the alive set: the largest election_key, that is the
highest last address octet with the full address as tie-break. Because
every instance evaluates the same function over the same set, they agree
without further messages.

A ping period of a stable cluster puts nothing on the clock. The transport
keeps one record per sender: its last periodic ping's time. Every receiver
holding the sender alive shares it as its view, so the tick does no work
for it. A receiver joins only if its election timeout is at least the
sender's ping period, so a shared view cannot expire while its sender
pings. A tick that leaves no receiver to send an event to parks: later
ticks are implied, one every ping period, until the group's composition
changes, which resumes them from the latest implied tick that has fired.
When the sender's engine halts, each holder takes its view as its own: the
last ping time, and an expiry at the time that delivering the ping as an
event would have given it. That expiry, and a resumed tick, draw later seqs
than the eager schedule's would have, but they tie only with their agent's
own cluster timers, whose order the timeline does not depend on (see
core.clock). So the timeline is that of a fabric that delivers each ping as
an event.

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


# Not memoised: a periodic ping to a holder is never decoded, so few repeat.
def decode_ping(data: bytes) -> tuple[str, int, int]:
    """Returns (dotted-quad address, epoch, virtual-ms); raises PingDecodeError otherwise."""
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
        election_key(parts[2])
        return parts[2], int(parts[3]), int(parts[4])
    except ValueError as exc:
        raise PingDecodeError(f"malformed datagram: {text.strip()!r}") from exc


# --- transport ---------------------------------------------------------------

class _Sender:
    """One sender's last periodic ping, which every receiver holding the
    sender alive reads as its view; each such agent records the group in
    its `_held`. `joiners` are the receivers that get the ping as an event,
    None until the next tick lays them out anew. A tick that finds no joiner
    parks its agent here (`parked`): its later ticks are implied, one every
    ping period from `last`, until LoopbackTransport.changed() resumes them.
    """

    __slots__ = ("last", "joiners", "parked")

    def __init__(self):
        self.last = 0
        self.joiners: list[ClusterAgent] | None = None
        self.parked: ClusterAgent | None = None

    def last_tick(self, clock) -> int:
        """The time of the sender's latest tick that has fired, implied ones
        included. An implied tick at clock.now has fired iff its rank, the
        parked agent's cluster rank, is below clock.firing_rank."""
        agent = self.parked
        if agent is None:
            return self.last
        now, period = clock.now, agent.ping_period
        tick = now - (now - self.last) % period
        if self.last < tick == now and clock.firing_rank <= agent.engine.rank_cluster:
            tick -= period  # implied at now, but not yet fired
        return tick


class LoopbackTransport:
    """In-memory datagram fabric between ClusterAgents, with per-link drop.

    send() schedules every datagram event: the agent's receive_datagram at
    its delivery rank, at the send's virtual ms. A periodic ping (ping())
    is one of those events only for a receiver that does not hold the
    sender alive; every receiver that does shares one record per sender,
    its group (`_senders`), and does no work on the sender's tick. One
    running agent holds each address.
    """

    def __init__(self, clock):
        self.clock = clock
        self._agents: dict[str, ClusterAgent] = {}
        self._drops: dict[tuple[str, str], bool] = {}
        self._senders: dict[str, _Sender] = {}

    def register(self, agent: ClusterAgent) -> None:
        """Add agent in place of a halted one at its address, which has left
        every group; ValueError if a running agent has the address."""
        old = self._agents.get(agent.address)
        if old is not None and not old.engine.halted:
            raise ValueError(f"address {agent.address} is taken by a running agent")
        self._agents[agent.address] = agent
        self.changed()

    def changed(self, src: str | None = None) -> None:
        """Have src's next ping tick (every sender's, for None) lay out its
        group anew: an agent registered or halted, a link dropped or came
        back, or a receiver came to hold src alive or took its view as its own.

        A parked sender resumes here: its `last` becomes its latest tick that
        has fired, and its next tick is scheduled a ping period on, at its
        cluster rank. That reaches every reader of `last`, as release()
        calls changed() before it reads it.
        """
        if src is None:
            senders = self._senders.values()
        else:
            senders = [self._senders[src]] if src in self._senders else ()
        for sender in senders:
            sender.joiners = None
            agent = sender.parked
            if agent is not None:
                sender.last = sender.last_tick(self.clock)
                sender.parked = None
                self.clock.at(sender.last + agent.ping_period, agent._ping_tick,
                              agent.engine.rank_cluster)

    def stopped(self, src: str) -> None:
        """src pings no more: each agent holding it takes its view as its own."""
        for agent in self._agents.values():
            agent.release(src)
        self.changed()

    def set_drop(self, src: str, dst: str, drop: bool) -> None:
        """Drop or restore a link. A receiver holding src through its group
        first takes what the link has delivered as its own view."""
        self._drops[(src, dst)] = drop
        agent = self._agents.get(dst)
        if agent is not None:
            agent.release(src)
        self.changed(src)

    def send(self, src: str, dst: str, data: bytes) -> None:
        """Schedule dst's receive_datagram now."""
        agent = self._agents.get(dst)
        if agent is None or self._drops.get((src, dst)):
            return
        self.clock.after(0, partial(agent.receive_datagram, data), agent.engine.rank_deliver)

    def broadcast(self, src: str, data: bytes) -> None:
        for dst in self._agents:
            if dst != src:
                self.send(src, dst, data)

    def ping(self, src: str, epoch: int, period: int) -> bool:
        """Broadcast src's periodic ping at `epoch`, the next one due `period`
        ms on: as broadcast(), but only a joiner gets an event. True if the
        tick parks src's agent, which then schedules no next tick.

        A receiver holding src alive joins its group instead, unless its
        election timeout is shorter than `period`. The group is laid out
        again only after the composition changes (changed()). A holder's
        refresh is then only the record's new time. A group with no joiner
        parks: each later tick would only move that time, so the ticks are
        implied (_Sender.last_tick) until changed() resumes them.

        Refreshing a holder at send time is exact: it moves only the last
        ping time of the holder's view, which no node code reads, and the
        expiry that time arms runs at the holder's cluster rank, where it ties
        only with that agent's own timers, whatever deliveries to it are pending.
        """
        sender = self._senders.get(src)
        if sender is None:
            sender = self._senders[src] = _Sender()
        if sender.joiners is None:
            sender.joiners = self._lay_out(src, sender, period)
        now = sender.last = self.clock.now
        if not sender.joiners:
            sender.parked = self._agents[src]
            return True
        data = encode_ping(src, epoch, now)
        for agent in sender.joiners:
            self.send(src, agent.address, data)
        return False

    def _lay_out(self, src: str, sender: _Sender, period: int) -> list[ClusterAgent]:
        """src's joiners, over _agents in order, skipping a dropped link and a
        halted receiver, whose event would do nothing; a receiver holding src
        alive as its own view joins the group here (hold) instead."""
        joiners = []
        for dst, agent in self._agents.items():
            if dst == src or self._drops.get((src, dst)) or agent.engine.halted:
                continue
            if not agent.hold(src, sender, period):
                joiners.append(agent)
        return joiners


# --- runtime agent -----------------------------------------------------------

class ClusterAgent:
    """Per-engine cluster runtime: pings, liveness timers, elections.

    The agent holds its `role` and `epoch`, `election_timeout` and
    `ping_period`, its own election `key`, and `_alive`, which maps each alive
    peer's address to its election key: all that an election reads. A peer
    is alive until one virtual ms past last ping + election timeout.

    A view of a peer is the agent's own or held in the sender's group. An
    own view has an expiry timer, moved by _heard alone, when the peer is
    heard (receive_datagram: joins, boot pings, raw datagrams) or a held
    view becomes its own; it fires once, at the last ping's expiry time,
    and marks only that peer dead. At the sender's next tick an own view
    of an alive peer joins the group (hold), dropping its timer, if the
    agent's timeout is at least the sender's ping period, and periodic
    pings refresh it with no work here. The view becomes the agent's own
    again (release), with the expiry the last ping armed, when the agent
    hears the sender itself, halts or loses the link, and when the sender
    halts. A view's last ping time is kept only in its group record or in
    its expiry's due. Ping ticks, the boot election and expiries run at the
    engine's cluster rank, after its node timers.

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
        self._alive: dict[str, tuple[int, str]] = {}  # alive peer's address -> election key
        self.transport = engine.world.transport
        self.role_node = spec.id
        self._listeners: list[Callable[[str, int], None]] = []
        self._expiry: dict[str, list] = {}  # address -> own view's expiry (cancelled if held)
        self._held: dict[str, _Sender] = {}  # address -> group record holding the view
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

    def leave(self) -> None:
        """Take every held view as this agent's own, hand back every view of
        this agent held in its group, and have every sender's next tick lay
        out its group anew: the engine halted, so it pings no more and its
        events do nothing."""
        for address in list(self._held):
            self.release(address)
        self.transport.stopped(self.address)

    # --- timers --------------------------------------------------------------
    def _ping_tick(self) -> None:
        if self.engine.halted or self.transport.ping(self.address, self.epoch, self.ping_period):
            return
        self.engine.clock.after(self.ping_period, self._ping_tick, rank=self.engine.rank_cluster)

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
        self.release(address)
        revived = address not in self._alive
        self._heard(address, self.engine.clock.now)
        if revived:
            self.transport.changed(address)
            self.run_election("master-recovered")

    def _heard(self, address: str, last: int) -> None:
        """Mark the peer alive as of `last`, as an own view, and move its
        expiry to one ms past the timeout through VirtualClock.rearm."""
        if address not in self._alive:
            self._alive[address] = election_key(address)
        self._expiry[address] = self.engine.clock.rearm(
            self._expiry.get(address), last + self.election_timeout + 1, self._expire,
            self.engine.rank_cluster, address)

    def hold(self, address: str, sender: _Sender, period: int) -> bool:
        """Join `address`'s group if this agent holds it alive, with a timeout
        of at least `period`, the sender's ping period; False if not."""
        if address not in self._alive or self.election_timeout < period:
            return False
        if address not in self._held:
            self._held[address] = sender
            self.engine.clock.cancel(self._expiry[address])
        return True

    def release(self, address: str) -> None:
        """Leave `address`'s group, if in it, taking its view as this agent's
        own: the last ping time, and the expiry that ping armed. The sender's
        next tick then lays out its group anew."""
        sender = self._held.pop(address, None)
        if sender is None:
            return
        self.transport.changed(address)
        self._heard(address, sender.last)

    def _expire(self, address: str) -> None:
        """Mark the peer dead, a timeout and a ms past its last ping, and run an election."""
        if self.engine.halted:
            return
        del self._alive[address]
        self.run_election("election-result")

    # --- elections ----------------------------------------------------------
    def run_election(self, reason: str) -> None:
        """Take the role the alive set gives this agent; log and notify on a change."""
        top = max(self._alive.values(), default=self.key)
        role = ROLE_MASTER if top <= self.key else ROLE_STANDBY
        if role == self.role:
            return
        self.role = role
        self.epoch += 1
        self.engine.log.add(self.engine.clock.now, self.engine.instance, "role-change",
                            self.role_node,
                            value={"role": role, "epoch": self.epoch, "reason": reason})
        for fn in self._listeners:
            fn(role, self.epoch)
