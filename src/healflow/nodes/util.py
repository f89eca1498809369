"""Plumbing nodes: sinks, broker bridges, field extraction, dedup.

A flow's sources are world devices (see healflow.sim.world), which reach it
through mqtt-in subscriptions.
"""

from __future__ import annotations

from ..core.envelope import Envelope
from ..core.timeline import SINK_TOPIC_PREFIX
from .base import Node, Param, register


@register
class Debug(Node):
    """Terminal sink; deliveries land in the timeline, nothing is re-emitted."""

    KIND = "debug"
    EGRESS_LABELS = ()
    CONFIG = {}


@register
class Rbe(Node):
    """Deduplicate sequentially repeated messages (report by exception).

    A payload passes unless it equals (==, so deep and structural) the last
    one that passed; the first always passes.
    """

    KIND = "rbe"
    EGRESS_LABELS = ("out",)
    CONFIG = {}

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._last = object()  # equals no payload

    def on_input(self, env: Envelope, ingress: int) -> None:
        if self._last == env.payload:
            return
        self._last = env.payload
        self.emit(0, env.payload, env.topic)


@register
class Extract(Node):
    """Pull one field out of a record payload."""

    KIND = "extract"
    EGRESS_LABELS = ("value", "error")
    CONFIG = {
        "key": Param("str"),
    }

    def on_input(self, env: Envelope, ingress: int) -> None:
        key = self.cfg["key"]
        if not isinstance(env.payload, dict):
            self.emit(1, {"kind": "malformed", "value": env.payload}, env.topic)
        elif key not in env.payload:
            self.emit(1, {"kind": "missing-key", "key": key}, env.topic)
        else:
            self.emit(0, env.payload[key], env.topic)


@register
class MqttIn(Node):
    """Subscribe to a broker topic (single-level '+' wildcard supported)."""

    KIND = "mqtt-in"
    INGRESSES = 0
    EGRESS_LABELS = ("out",)
    CONFIG = {
        "topic": Param("str"),
    }

    def on_start(self) -> None:
        self.engine.world.subscribe(self.engine.instance, self.id, self.cfg["topic"])

    def on_external(self, topic: str, payload) -> None:
        self.emit(0, payload, topic)


@register
class MqttOut(Node):
    """Publish incoming payloads to the broker."""

    KIND = "mqtt-out"
    EGRESS_LABELS = ()
    CONFIG = {
        "topic": Param("str", default=None),
    }

    def on_input(self, env: Envelope, ingress: int) -> None:
        self.engine.world.publish(self.cfg["topic"] or env.topic, env.payload,
                                  source=self.engine.instance)


@register
class HttpPost(Node):
    """Deliver payloads to an external service in the world inventory.

    A successful post emits on 'posted' with topic SINK_TOPIC_PREFIX + id;
    those emissions are what delivery reports count as sink deliveries.
    """

    KIND = "http-post"
    EGRESS_LABELS = ("posted", "error")
    CONFIG = {
        "service": Param("str"),
    }

    def on_input(self, env: Envelope, ingress: int) -> None:
        sid = self.cfg["service"]
        svc = self.engine.world.services.get(sid)
        if svc is None:
            self.emit(1, {"kind": "unknown-service", "service": sid}, env.topic)
        elif not svc.up:
            self.emit(1, {"kind": "service-down", "service": sid}, env.topic)
        else:
            self.emit(0, env.payload, SINK_TOPIC_PREFIX + sid)
