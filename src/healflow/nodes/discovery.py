"""Discovery operators: probe the simulated world and track known devices."""

from __future__ import annotations

from ..core.envelope import Envelope
from ..persistence import StoreError
from .base import Node, Param, register


@register
class HttpAware(Node):
    """Periodically probe the service inventory for appearances/disappearances.

    Every probe diffs (host, port) pairs against the previous one, so the
    first probe reports everything already running as appeared.
    """

    KIND = "http-aware"
    INGRESSES = 0
    EGRESS_LABELS = ("appeared", "disappeared")
    CONFIG = {
        "ports": Param("list", default=None),
        "period": Param("int", minimum=0, exclusive_min=True),
    }

    @classmethod
    def check_config(cls, config):
        ports = config.get("ports")
        if ports is not None and not all(type(p) is int for p in ports):  # bool is no port
            return [f"config 'ports' must hold integers, got {ports!r}"]
        return []

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._seen: dict = {}

    def on_start(self) -> None:
        self._probe()
        self.set_timer("probe", self.cfg["period"])

    def on_timer(self, tag: str) -> None:
        self._probe()
        self.set_timer("probe", self.cfg["period"])

    def _probe(self) -> None:
        ports = self.cfg["ports"]
        current = {}
        for svc in self.engine.world.services_up():
            if ports is None or svc.port in ports:
                current[(svc.host, svc.port)] = svc.id
        for key in sorted(set(current) - set(self._seen)):
            self.emit(0, {"event": "appeared", "service": current[key],
                          "host": key[0], "port": key[1]})
        for key in sorted(set(self._seen) - set(current)):
            self.emit(1, {"event": "disappeared", "service": self._seen[key],
                          "host": key[0], "port": key[1]})
        self._seen = current


@register
class NetworkAware(Node):
    """Periodically scan the world's hosts for joins and departures."""

    KIND = "network-aware"
    INGRESSES = 0
    EGRESS_LABELS = ("joined", "left")
    CONFIG = {
        "period": Param("int", minimum=0, exclusive_min=True),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._seen: set = set()

    def on_start(self) -> None:
        self._scan()
        self.set_timer("scan", self.cfg["period"])

    def on_timer(self, tag: str) -> None:
        self._scan()
        self.set_timer("scan", self.cfg["period"])

    def _scan(self) -> None:
        current = set(self.engine.world.hosts())
        for host in sorted(current - self._seen):
            self.emit(0, {"event": "joined", "host": host})
        for host in sorted(self._seen - current):
            self.emit(1, {"event": "left", "host": host})
        self._seen = current


# Events that refresh a registry entry vs. mark it lost.
_ONLINE_EVENTS = ("joined", "appeared")
_LOST_EVENTS = ("left", "disappeared", "heartbeat-error")


@register
class DeviceRegistry(Node):
    """Maintain the persistent registry of known devices and services.

    Accepts the discovery nodes' event payloads (and heartbeat-error records
    shaped the same way), upserts or marks entries lost, and emits one change
    envelope per mutation.
    """

    KIND = "device-registry"
    EGRESS_LABELS = ("change", "error")
    CONFIG = {}

    def on_input(self, env: Envelope, ingress: int) -> None:
        payload = env.payload
        if not isinstance(payload, dict) or payload.get("event") not in (
                _ONLINE_EVENTS + _LOST_EVENTS):
            self.emit(1, {"kind": "malformed", "value": payload}, env.topic)
            return
        event = payload["event"]
        device_id = payload.get("device") or payload.get("service") or payload.get("host")
        if not isinstance(device_id, str) or not device_id:
            self.emit(1, {"kind": "missing-id", "value": payload}, env.topic)
            return
        kind = payload.get("kind") or ("service" if "service" in payload else "host")
        host, port = payload.get("host", ""), payload.get("port", 0)
        if event in _ONLINE_EVENTS and not (isinstance(kind, str) and isinstance(host, str)
                                            and type(port) is int):  # bool is no port
            self.emit(1, {"kind": "malformed", "value": payload}, env.topic)
            return
        endpoint = f"{host}:{port}" if "port" in payload else host
        try:
            if event in _ONLINE_EVENTS:
                entry = self.engine.store.registry_upsert(device_id, kind, endpoint, self.now)
            else:
                entry = self.engine.store.registry_mark_lost(device_id, self.now)
        except StoreError as exc:
            self.emit(1, {"kind": "registry-error", "error": str(exc)}, env.topic)
            return
        self.emit(0, {"device": entry.device_id, "status": entry.status,
                      "lastSeen": entry.last_seen}, env.topic)
