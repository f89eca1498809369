"""Single-clock dataflow engine: hosts nodes, dispatches envelopes, runs timers.

Cascade semantics: a delivery is processed to completion (the target node is
invoked synchronously and may emit further envelopes, which queue behind it)
before the clock moves to the next pending event. Operator exceptions are
logged as fault entries and never abort the run.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from functools import partial
from typing import Any, Optional

from ..cluster import ClusterAgent, InstanceId
from ..persistence import Store
from .clock import VirtualClock
from .envelope import Envelope
from .graph import Diagnostic, FlowGraph, validate_graph
from .timeline import TimelineLog

logger = logging.getLogger(__name__)


class GraphInvalid(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class UnknownFlowGroup(KeyError):
    pass


class NodeContext:
    """Everything a node may touch at runtime, owned by its engine."""

    def __init__(self, engine: "Engine", spec):
        self._engine = engine
        self._spec = spec
        self._rng: Optional[random.Random] = None

    @property
    def now(self) -> int:
        return self._engine.clock.now

    @property
    def instance(self) -> str:
        return self._engine.instance

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = self._engine.node_rng(self._spec.id)
        return self._rng

    @property
    def store(self) -> Store:
        return self._engine.store

    @property
    def world(self):
        return self._engine.world

    @property
    def cluster(self) -> Optional[ClusterAgent]:
        return self._engine.cluster

    def emit(self, port: int, payload, topic: str = "", corr: Optional[str] = None) -> None:
        self._engine.emit_from(self._spec, port, payload, topic, corr)

    def set_timer(self, tag: str, delay_ms: int) -> None:
        """(Re)arm the node timer named tag; an existing one is cancelled."""
        self._engine.set_node_timer(self._spec, tag, delay_ms)

    def clear_timer(self, tag: str) -> None:
        self._engine.clear_node_timer(self._spec, tag)

    def set_flow(self, flow: str, enabled: bool) -> None:
        self._engine.set_flow(flow, enabled)

    def subscribe(self, pattern: str) -> None:
        if self._engine.world is not None:
            self._engine.world.subscribe(self._engine.instance, self._spec.id, pattern)

    def log_fault(self, value) -> None:
        self._engine.log.add(self.now, self.instance, "fault", self._spec.id, value=value)

    def log_warning(self, message: str) -> None:
        logger.warning("[%s/%s] %s", self.instance, self._spec.id, message)


class Engine:
    """One runtime instance: a validated graph plus its live node state.

    The engine is single-threaded; envelopes and timeline entries are
    immutable values, safe to hand to a reporter on another thread.
    """

    def __init__(self, graph: FlowGraph, *, instance: str = "node", address: str = "127.0.0.1",
                 seed: int = 0, clock: Optional[VirtualClock] = None,
                 log: Optional[TimelineLog] = None, store: Optional[Store] = None,
                 world=None, transport=None, rank: int = 0, validate: bool = True):
        if validate:
            errors = [d for d in validate_graph(graph) if d.severity == "error"]
            if errors:
                raise GraphInvalid(errors)
        from ..nodes import NODE_KINDS

        self.graph = graph
        self.instance = instance
        self.address = address
        self.seed = seed
        self.rank = rank
        # External deliveries beat node timers at equal timestamps: silence
        # windows are half-open, (t - timeout, t], so a message landing
        # exactly on a deadline counts as activity and suppresses the timer.
        self.rank_deliver = 2 * rank
        self.rank_timer = 2 * rank + 1
        self.clock = clock if clock is not None else VirtualClock()
        self.log = log if log is not None else TimelineLog()
        self.store = store if store is not None else Store()
        self.world = world
        self.halted = False
        self.flow_enabled = graph.flow_groups()

        self.nodes = {spec.id: NODE_KINDS[spec.kind](spec, NodeContext(self, spec))
                      for spec in graph.nodes}
        self._queue: deque = deque()
        self._draining = False
        self._timers: dict[tuple[str, str], Any] = {}

        self.cluster: Optional[ClusterAgent] = None
        reds = [s for s in graph.nodes if s.kind == "redundancy"]
        if reds:
            cfg = reds[0].config
            self.cluster = ClusterAgent(
                self, InstanceId.from_address(address, instance),
                election_timeout=cfg["electionTimeout"], transport=transport,
                controlled_flows=cfg["controlledFlows"], role_node=reds[0].id)

        if world is not None:
            world.register_engine(instance, self, self.rank_deliver)

    # --- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Run every node's startup hook (checkpoint replay, timer arming)."""
        for spec in self.graph.nodes:
            node = self.nodes[spec.id]
            try:
                node.on_start()
            except Exception as exc:  # noqa: BLE001 - operators never abort the run
                self._log_operator_error(spec.id, exc)
            self._drain()
        if self.cluster is not None:
            self.cluster.start()

    def run_until(self, t_end: int) -> TimelineLog:
        """Drive a standalone engine's own clock; returns the log for convenience."""
        self.clock.run_until(t_end)
        return self.log

    def halt(self) -> None:
        """Stop processing; pending timers and deliveries become no-ops."""
        self.halted = True

    def guard(self, fn):
        """Wrap a callback so it dies silently once the engine is halted."""
        def wrapped(*args, **kwargs):
            if not self.halted:
                fn(*args, **kwargs)
        return wrapped

    def node_rng(self, node_id: str) -> random.Random:
        # String seeding hashes with sha512 internally, stable across runs.
        return random.Random(f"{self.seed}/{self.instance}/{node_id}")

    # --- flow groups ---------------------------------------------------------
    def set_flow(self, flow: str, enabled: bool) -> None:
        if flow not in self.flow_enabled:
            raise UnknownFlowGroup(flow)
        self.flow_enabled[flow] = enabled

    # --- emission and delivery -------------------------------------------------
    def emit_from(self, spec, port: int, payload, topic: str = "",
                  corr: Optional[str] = None) -> None:
        if self.halted:
            return
        env = Envelope(time=self.clock.now, topic=topic, payload=payload,
                       source=spec.id, port=port, corr=corr)
        self.log.add(env.time, self.instance, "emit", spec.id, port, topic, payload)
        if port < len(spec.wires):
            for dst, ingress in spec.wires[port]:
                target = self.graph.by_id[dst]
                if self.flow_enabled.get(target.flow, True):
                    self.log.add(env.time, self.instance, "deliver", dst, ingress,
                                 topic, payload)
                    self._queue.append((target, ingress, env.fork()))
                else:
                    self.log.add(env.time, self.instance, "drop", dst, ingress,
                                 topic, payload)
        self._drain()

    def deliver_external(self, node_id: str, topic: str, payload,
                         ingress: Optional[int] = None,
                         corr: Optional[str] = None) -> None:
        """Deliver from outside the wire graph (broker message or test drive)."""
        if self.halted:
            return
        spec = self.graph.by_id.get(node_id)
        if spec is None:
            raise KeyError(f"unknown node {node_id!r}")
        now = self.clock.now
        if not self.flow_enabled.get(spec.flow, True):
            self.log.add(now, self.instance, "drop", node_id, ingress, topic, payload)
            return
        self.log.add(now, self.instance, "deliver", node_id, ingress, topic, payload)
        if ingress is None:
            self._queue.append((spec, None, (topic, payload)))
        else:
            env = Envelope(time=now, topic=topic, payload=payload,
                           source="<external>", port=0, corr=corr)
            self._queue.append((spec, ingress, env))
        self._drain()

    def _drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue:
                spec, ingress, item = self._queue.popleft()
                node = self.nodes[spec.id]
                try:
                    if ingress is None:
                        topic, payload = item
                        node.on_external(topic, payload)
                    else:
                        node.on_input(item, ingress)
                except Exception as exc:  # noqa: BLE001
                    self._log_operator_error(spec.id, exc)
        finally:
            self._draining = False

    # --- node timers --------------------------------------------------------
    def set_node_timer(self, spec, tag: str, delay_ms: int) -> None:
        key = (spec.id, tag)
        old = self._timers.get(key)
        if old is not None:
            self.clock.cancel(old)
        self._timers[key] = self.clock.at(self.clock.now + delay_ms,
                                          partial(self._fire_node_timer, spec.id, tag),
                                          rank=self.rank_timer)

    def _fire_node_timer(self, node_id: str, tag: str) -> None:
        if self.halted:
            return
        self._timers.pop((node_id, tag), None)
        self.log.add(self.clock.now, self.instance, "timer", node_id, value=tag)
        try:
            self.nodes[node_id].on_timer(tag)
        except Exception as exc:  # noqa: BLE001
            self._log_operator_error(node_id, exc)
        self._drain()

    def clear_node_timer(self, spec, tag: str) -> None:
        old = self._timers.pop((spec.id, tag), None)
        if old is not None:
            self.clock.cancel(old)

    def _log_operator_error(self, node_id: str, exc: Exception) -> None:
        logger.exception("operator %s failed", node_id)
        self.log.add(self.clock.now, self.instance, "fault", node_id,
                     value={"kind": "operator-error", "error": str(exc)})
