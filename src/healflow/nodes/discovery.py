"""Discovery operators: scan the simulated world and track known devices.

http-aware and network-aware differ only in what they scan for: both run _Scan.
"""

from __future__ import annotations

from ..core.envelope import Envelope
from ..persistence import StoreError
from .base import Node, Param, register


class _Scan(Node):
    """Diff what is present against the last scan, at start and every period.

    A subclass's present() maps each key present now to the fields of its
    events. Keys that appeared go out on egress 0, then keys that left on
    egress 1, each in key order and named by its egress label, so the first
    scan reports all as arrived and an unchanged scan emits nothing. Then the
    timer TAG, which timer entries log, is re-armed.
    """

    INGRESSES = 0
    TAG = ""

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._seen: dict = {}

    def on_start(self) -> None:
        self._rescan()

    def on_timer(self, tag: str) -> None:
        self._rescan()

    def _rescan(self) -> None:
        current, seen = self.present(), self._seen
        arrived, departed = self.EGRESS_LABELS
        for key in sorted(current.keys() - seen.keys()):
            self.emit(0, {"event": arrived, **current[key]})
        for key in sorted(seen.keys() - current.keys()):
            self.emit(1, {"event": departed, **seen[key]})
        self._seen = current
        self.set_timer(self.TAG, self.cfg["period"])


@register
class HttpAware(_Scan):
    """Probe the service inventory for running services, keyed by (host, port)."""

    KIND = "http-aware"
    TAG = "probe"
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

    def present(self) -> dict:
        ports = self.cfg["ports"]
        return {(svc.host, svc.port): {"service": svc.id, "host": svc.host, "port": svc.port}
                for svc in self.engine.world.services_up()
                if ports is None or svc.port in ports}


@register
class NetworkAware(_Scan):
    """Scan the world's hosts for joins and departures."""

    KIND = "network-aware"
    TAG = "scan"
    EGRESS_LABELS = ("joined", "left")
    CONFIG = {
        "period": Param("int", minimum=0, exclusive_min=True),
    }

    def present(self) -> dict:
        return {host: {"host": host} for host in self.engine.world.hosts()}


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
                entry = self.engine.store.registry_mark_lost(device_id)
        except StoreError as exc:
            self.emit(1, {"kind": "registry-error", "error": str(exc)}, env.topic)
            return
        self.emit(0, {"device": entry.device_id, "status": entry.status,
                      "lastSeen": entry.last_seen}, env.topic)
