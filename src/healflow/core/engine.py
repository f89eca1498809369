"""Single-clock dataflow engine: hosts nodes, dispatches envelopes, runs timers.

Every delivery into a node, wired or external, goes through Engine._enqueue:
it logs one deliver, or a drop if the flow group is disabled or the engine
halted, and queues the node object with the envelope's one fork. Payloads
are shared, under the rule stated on Envelope.

Cascade semantics: a delivery is processed to completion (the target node is
invoked synchronously and may emit further envelopes, which queue behind it)
before the clock moves to the next pending event. Operator exceptions are
logged as fault entries and never abort the run.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from typing import Optional

from ..cluster import ClusterAgent
from ..nodes import NODE_KINDS
from ..persistence import Store
from .envelope import Envelope
from .graph import FlowGraph
from .timeline import TimelineLog

logger = logging.getLogger(__name__)


class Engine:
    """One runtime instance: a validated graph plus its live node state.

    graph is taken as given: a parse_flow graph in which validate_graph
    found no error. Neither the engine nor restart() checks it again.

    It uses its world's clock, timeline, transport and seed, and takes its
    rank from the world by the order it joined `world.engines`; restart()
    replaces it there. Its delivery queue holds (node object, ingress,
    envelope) triples, so a delivery looks up no node by id. The engine is
    single-threaded. Envelopes and timeline entries cannot be changed; the
    payloads in them are shared between the timeline and every delivery,
    so no node mutates one it did not build (see Envelope).
    """

    def __init__(self, graph: FlowGraph, *, world, instance: str, address: str, store: Store):
        self.graph = graph
        self.instance = instance
        self.address = address
        self.world = world
        self.seed = world.seed
        rank = world.rank(instance)
        # External deliveries beat node timers at equal timestamps: silence
        # windows are half-open, (t - timeout, t], so a message landing
        # exactly on a deadline counts as activity and suppresses the timer.
        # The cluster agent's timers come last and are all that run there,
        # its ping tick after its boot election and expiries (see core.clock).
        self.rank_deliver = 4 * rank
        self.rank_timer = 4 * rank + 1
        self.rank_cluster = 4 * rank + 2
        self.rank_ping = 4 * rank + 3
        self.clock = world.clock
        self.log = world.log
        self.store = store
        self.halted = False
        self.flow_enabled = graph.flow_groups()

        self.nodes = {spec.id: NODE_KINDS[spec.kind](spec, self) for spec in graph.nodes}
        self._queue: deque = deque()
        self._draining = False
        self._timers: dict[tuple[str, str], list] = {}  # (node, tag) -> clock entry
        self._failures: dict[str, int] = {}  # node id -> operator errors so far

        red = next((s for s in graph.nodes if s.kind == "redundancy"), None)
        self.cluster: Optional[ClusterAgent] = (
            ClusterAgent(self, red) if red is not None else None)
        world.engines[instance] = self

    # --- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Run every node's startup hook (checkpoint replay, timer arming)."""
        for spec in self.graph.nodes:
            node = self.nodes[spec.id]
            try:
                node.on_start()
            except Exception as exc:  # noqa: BLE001 - operators never abort the run
                self._log_operator_error(spec.id, exc)
        if self.cluster is not None:
            self.cluster.start()

    def run_until(self, t_end: int) -> TimelineLog:
        """Drive the world's clock to t_end; returns the log for convenience."""
        self.clock.run_until(t_end)
        return self.log

    def halt(self) -> None:
        """Stop processing: pending timers become no-ops, deliveries drops."""
        self.halted = True
        if self.cluster is not None:
            self.cluster.leave()

    def restart(self) -> Engine:
        """Halt this engine and start a fresh one on its graph, address, store and world."""
        self.halt()
        engine = Engine(self.graph, instance=self.instance, address=self.address,
                        store=self.store, world=self.world)
        engine.start()
        return engine

    def node_rng(self, node_id: str) -> random.Random:
        # String seeding hashes with sha512 internally, stable across runs.
        return random.Random(f"{self.seed}/{self.instance}/{node_id}")

    # --- emission and delivery -------------------------------------------------
    def emit_from(self, spec, port: int, payload, topic: str = "") -> None:
        if self.halted:
            return
        if port < 0:
            raise ValueError("egress index must be non-negative")
        self.log.add(self.clock.now, self.instance, "emit", spec.id, port, topic, payload)
        if port < len(spec.wires):
            env = tuple.__new__(Envelope, (topic, payload))
            for dst, ingress in spec.wires[port]:
                self._enqueue(self.nodes[dst], ingress, env)
        self._drain()

    def deliver_external(self, node_id: str, topic: str, payload,
                         ingress: Optional[int] = None) -> None:
        """Deliver from outside the wire graph: a broker message (ingress None,
        handled by on_external) or a test drive. A halted engine logs a drop."""
        self._enqueue(self.nodes[node_id], ingress, tuple.__new__(Envelope, (topic, payload)))
        self._drain()

    def _enqueue(self, node, ingress: Optional[int], env: Envelope) -> None:
        """Log one deliver or drop for node; a delivery queues node with env.fork()."""
        spec = node.spec
        deliver = not self.halted and self.flow_enabled.get(spec.flow, True)
        self.log.add(self.clock.now, self.instance, "deliver" if deliver else "drop", spec.id,
                     ingress, env.topic, env.payload)
        if deliver:
            self._queue.append((node, ingress, env.fork()))

    def _drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue:
                node, ingress, env = self._queue.popleft()
                try:
                    if ingress is None:
                        node.on_external(env.topic, env.payload)
                    else:
                        node.on_input(env, ingress)
                except Exception as exc:  # noqa: BLE001
                    self._log_operator_error(node.spec.id, exc)
        finally:
            self._draining = False

    # --- node timers --------------------------------------------------------
    def set_node_timer(self, spec, tag: str, delay_ms: int) -> None:
        """(Re)arm timer `tag` of spec's node to fire once, delay_ms from now;
        a pending one is moved there through VirtualClock.rearm."""
        key = (spec.id, tag)
        clock = self.clock
        self._timers[key] = clock.rearm(self._timers.get(key), clock.now + delay_ms,
                                        self._fire_node_timer, self.rank_timer, spec.id, tag)

    def _fire_node_timer(self, node_id: str, tag: str) -> None:
        if self.halted:
            return
        self.log.add(self.clock.now, self.instance, "timer", node_id, value=tag)
        try:
            self.nodes[node_id].on_timer(tag)
        except Exception as exc:  # noqa: BLE001
            self._log_operator_error(node_id, exc)

    def clear_node_timer(self, spec, tag: str) -> None:
        old = self._timers.pop((spec.id, tag), None)
        if old is not None:
            self.clock.cancel(old)

    def _log_operator_error(self, node_id: str, exc: Exception) -> None:
        """Log one operator-error fault; only the node's first failure in this
        engine logs a traceback, each later one a DEBUG line with its count."""
        count = self._failures[node_id] = self._failures.get(node_id, 0) + 1
        if count == 1:
            logger.exception("operator %s failed", node_id)
        else:
            logger.debug("operator %s failed again, %d failures: %s", node_id, count, exc)
        self.log.add(self.clock.now, self.instance, "fault", node_id,
                     value={"kind": "operator-error", "error": str(exc)})
