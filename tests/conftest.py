from __future__ import annotations

import contextlib
import heapq
import json
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import settings

from healflow.core.clock import VirtualClock
from healflow.core.engine import Engine
from healflow.core.envelope import Envelope, encode_json
from healflow.core.graph import FlowGraph, NodeSpec, fill_defaults, validate_graph
from healflow.core.timeline import TimelineLog
from healflow.persistence import Store
from healflow.sim import world as world_module
from healflow.sim.world import RANK_INSTANCE_BASE, World

DATA = Path(__file__).parent / "data"

# A long search that tries the same examples on every run:
# pytest --hypothesis-profile=search gives each property that asks examples() 1,500.
settings.register_profile("search", max_examples=1500, deadline=None, derandomize=True)


def examples(tier1: int) -> int:
    """A property's example count: tier1, or the search profile's when it is loaded."""
    if settings.get_current_profile_name() == "search":
        return settings.default.max_examples
    return tier1


def make_spec(node_id: str, kind: str, config: dict | None = None, **kwargs) -> NodeSpec:
    """NodeSpec with schema defaults filled, as parse_flow fills them."""
    return NodeSpec(id=node_id, kind=kind, config=fill_defaults(kind, config or {}), **kwargs)


def build_graph(*specs: NodeSpec) -> FlowGraph:
    """A graph of specs, unchecked: validate it, or build an engine through make_engine."""
    return FlowGraph(list(specs))


def make_engine(graph: FlowGraph, *, world=None, instance: str = "test",
                address: str = "127.0.0.1", store: Store | None = None) -> Engine:
    """An engine on graph, which must validate without error, as a loaded flow does.

    Engine trusts its graph, so a test that builds one by hand checks it here.
    world defaults to a fresh World(), store to a memory Store().
    """
    errors = [d for d in validate_graph(graph) if d.severity == "error"]
    assert errors == [], errors
    return Engine(graph, instance=instance, address=address,
                  store=store if store is not None else Store(),
                  world=world if world is not None else World())


def final_seq(clock):
    """The creation sequence the clock gives its next entry; schedules a no-op to read it."""
    return clock.at(clock.now, lambda: None, 0)[2]


class TieShuffleClock(VirtualClock):
    """A VirtualClock that fires same-ms ties among each engine's cluster
    timers, and at its ping rank, in a seeded random order: an entry at a
    cluster or ping rank, or the due that rearm() records there, is keyed
    (random tie key, creation sequence). Entries at other ranks keep their
    creation order."""

    def __init__(self, seed: int):
        super().__init__()
        self._tie_key = random.Random(seed).random

    def _key(self, rank: int, seq: int):
        if rank >= 4 * RANK_INSTANCE_BASE and rank % 4 >= 2:
            return self._tie_key(), seq
        return seq

    def at(self, time, fn, rank):
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, clock is at {self.now}")
        entry = [time, rank, self._key(rank, next(self._seq)), fn, None]
        heapq.heappush(self._heap, entry)
        return entry

    def rearm(self, entry, time, fn, rank, *args):
        moved = super().rearm(entry, time, fn, rank, *args)
        if moved is entry:  # kept its place: only its due was drawn
            due_time, seq = entry[4]
            entry[4] = (due_time, self._key(rank, seq))
        return moved


@contextlib.contextmanager
def shuffled_cluster_ties(seed: int):
    """Every World made inside runs on a TieShuffleClock of `seed`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(world_module, "VirtualClock", partial(TieShuffleClock, seed))
        yield


def _refuse(*args, **kwargs):
    raise TypeError("a delivered payload is shared; a node may not mutate it")


class FrozenDict(dict):
    """A dict payload as the freeze mode delivers it: every mutation raises TypeError."""

    __slots__ = ()  # no attributes, as on a plain dict
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class FrozenList(list):
    """A list payload as the freeze mode delivers it: every mutation raises TypeError."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = clear = extend = insert = pop = remove = reverse = sort = _refuse


def _shell(value, stack: list):
    """An empty frozen container for a dict or list, queued on stack to be filled; else value."""
    if isinstance(value, (FrozenDict, FrozenList)):  # frozen all the way down already
        return value
    if isinstance(value, dict):
        shell = FrozenDict()
    elif isinstance(value, list):
        shell = FrozenList()
    else:
        return value
    stack.append((value, shell))
    return shell


def frozen(value):
    """A deep copy of value whose every dict and list refuses mutation, key order kept.

    Built with an explicit stack, not by recursion, so nesting depth costs
    no Python frames. Each shell is filled through dict's and list's own
    methods, past the frozen classes' refusals.
    """
    stack: list = []
    top = _shell(value, stack)
    while stack:
        original, shell = stack.pop()
        if isinstance(shell, dict):
            for key, child in original.items():
                dict.__setitem__(shell, key, _shell(child, stack))
        else:
            list.extend(shell, [_shell(child, stack) for child in original])
    return top


class PayloadFreeze:
    """The freeze mode's record: the text each logged container encoded to when first logged.

    A logged value is keyed by its id, and held, so the id is not reused
    while the record lives.
    """

    def __init__(self):
        self.logged: dict[int, tuple] = {}

    def snapshot(self, value) -> None:
        if isinstance(value, (str, int, float, type(None))) or id(value) in self.logged:
            return
        try:
            text = encode_json(value)
        except (TypeError, ValueError, RecursionError):
            return  # not a JSON value, so no text to hold it to
        self.logged[id(value)] = (value, text)

    def check(self) -> None:
        """Fail if a logged value no longer encodes to its text from when it was logged."""
        changed = [(text, now) for value, text in self.logged.values()
                   if (now := encode_json(value)) != text]
        assert not changed, f"logged values changed since they were logged: {changed[:3]}"


@pytest.fixture(autouse=True)
def payload_freeze():
    """Freeze mode, on for every test: it checks that no node mutates a payload it
    did not build (the rule stated on Envelope).

    Each Envelope.fork delivers frozen(payload), so a node that mutates a
    payload it received raises TypeError, which its engine logs as an
    operator-error fault. TimelineLog.add records the text of each logged
    container, and teardown fails if one changed, as when a node mutates a
    payload it already emitted.
    """
    freeze = PayloadFreeze()
    add = TimelineLog.add

    def logged_add(log, time, instance, kind, node, port=None, topic="", value=None):
        add(log, time, instance, kind, node, port, topic, value)
        freeze.snapshot(value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Envelope, "fork",
                   lambda env: tuple.__new__(Envelope, (env.topic, frozen(env.payload))))
        mp.setattr(TimelineLog, "add", logged_add)
        yield freeze
    freeze.check()


class NodeHarness:
    """Host a single node in a bare engine and drive it by the virtual clock."""

    def __init__(self, kind: str, config: dict | None = None, *, node_id: str = "n",
                 seed: int = 0, world=None, store=None):
        self.node_id = node_id
        self.graph = build_graph(make_spec(node_id, kind, config))
        self.engine = make_engine(self.graph, store=store,
                                  world=world if world is not None else World(seed=seed))

    def feed_at(self, t: int, payload, topic: str = "", ingress: int = 0):
        self.engine.clock.at(t, lambda: self.engine.deliver_external(
            self.node_id, topic, payload, ingress=ingress), rank=0)

    def run(self, t_end: int):
        self.engine.start()
        self.engine.run_until(t_end)
        return self.engine.log

    def emits(self, port: int | None = None):
        """(time, payload) pairs emitted by the node, optionally one egress."""
        return [(e.time, e.value) for e in self.engine.log.emits(self.node_id)
                if port is None or e.port == port]


@pytest.fixture
def harness():
    return NodeHarness


@pytest.fixture
def fixture_path():
    def _path(name: str) -> Path:
        return DATA / name
    return _path


@pytest.fixture
def fixture_json():
    def _load(name: str):
        return json.loads((DATA / name).read_text())
    return _load
