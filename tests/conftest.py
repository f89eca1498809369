from __future__ import annotations

import contextlib
import heapq
import json
import random
from functools import partial
from pathlib import Path

import pytest

from healflow.core.clock import VirtualClock
from healflow.core.engine import Engine
from healflow.core.graph import FlowGraph, NodeSpec, fill_defaults, validate_graph
from healflow.persistence import Store
from healflow.sim import world as world_module
from healflow.sim.world import RANK_INSTANCE_BASE, World

DATA = Path(__file__).parent / "data"


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
    timers in a seeded random order: an entry at a cluster rank, or the due
    that rearm() records there, is keyed (random tie key, creation sequence).
    Entries at other ranks keep their creation order."""

    def __init__(self, seed: int):
        super().__init__()
        self._tie_key = random.Random(seed).random

    def _key(self, rank: int, seq: int):
        if rank >= 3 * RANK_INSTANCE_BASE and rank % 3 == 2:
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
