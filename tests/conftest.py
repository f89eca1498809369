from __future__ import annotations

import json
from pathlib import Path

import pytest

from healflow.core.engine import Engine
from healflow.core.graph import FlowGraph, NodeSpec
from healflow.nodes import NODE_KINDS
from healflow.sim import World

DATA = Path(__file__).parent / "data"


def make_spec(node_id: str, kind: str, config: dict | None = None, **kwargs) -> NodeSpec:
    """NodeSpec with schema defaults filled, like parse_flow would."""
    config = dict(config or {})
    for name, param in NODE_KINDS[kind].CONFIG.items():
        if name not in config and param.has_default:
            config[name] = param.default
    return NodeSpec(id=node_id, kind=kind, config=config, **kwargs)


def build_graph(*specs: NodeSpec) -> FlowGraph:
    return FlowGraph(list(specs))


class NodeHarness:
    """Host a single node in a bare engine and drive it by the virtual clock."""

    def __init__(self, kind: str, config: dict | None = None, *, node_id: str = "n",
                 seed: int = 0, world=None, store=None):
        self.node_id = node_id
        self.graph = build_graph(make_spec(node_id, kind, config))
        self.engine = Engine(self.graph, instance="test", store=store,
                             world=world if world is not None else World(seed=seed))

    def feed_at(self, t: int, payload, topic: str = "", ingress: int = 0, corr=None):
        self.engine.clock.at(
            t, lambda: self.engine.deliver_external(
                self.node_id, topic, payload, ingress=ingress, corr=corr))

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
