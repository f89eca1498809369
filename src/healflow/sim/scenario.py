"""Scenario scripts: the world declaration plus time-ordered fault events.

Scenario file schema (UTF-8 JSON):

    {"seed": u64, "duration_ms": u64,
     "world": {"devices": [...], "services": [...], "instances": [...]},
     "events": [{"at_ms": u64, "kind": str, "target": str, "params": {...}}]}

The world section is optional; without it a run gets auto-named instances
and an empty inventory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..cluster import election_key
from ..core.timeline import WORLD_INSTANCE
from .world import Service, VirtualDevice

FAULT_KINDS = (
    "device_offline", "device_online",
    "instance_crash", "instance_restart",
    "net_delay", "value_noise", "stuck_value",
    "service_down", "service_up",
)

_DEVICE_FAULTS = ("device_offline", "device_online", "value_noise", "stuck_value")
_INSTANCE_FAULTS = ("instance_crash", "instance_restart")
_SERVICE_FAULTS = ("service_down", "service_up")


class ScenarioError(ValueError):
    pass


@dataclass
class FaultEvent:
    at: int
    kind: str
    target: str
    params: dict = field(default_factory=dict)


@dataclass
class InstanceSpec:
    name: str
    address: str


@dataclass
class WorldSpec:
    devices: list[VirtualDevice] = field(default_factory=list)
    services: list[Service] = field(default_factory=list)
    instances: list[InstanceSpec] = field(default_factory=list)


@dataclass
class ScenarioScript:
    seed: int
    duration: int
    events: list[FaultEvent] = field(default_factory=list)
    world: WorldSpec = field(default_factory=WorldSpec)


def _objects(doc: dict, key: str, where: str = "") -> list[dict]:
    """doc[key] as a list of JSON objects, empty when absent."""
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
        raise ScenarioError(f"{where}{key} must be a list of objects")
    return items


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be an integer, got {value!r}") from None


def _numbers(value, what: str, nonnegative: bool = False):
    """value when it is a number or an object of numbers, none negative if asked."""
    for v in value.values() if isinstance(value, dict) else (value,):
        if type(v) not in (int, float) or (nonnegative and v < 0):
            sort = "non-negative number" if nonnegative else "number"
            raise ScenarioError(f"{what} must be a {sort} or an object of them, got {value!r}")
    return value


def _parse_device(raw: dict) -> VirtualDevice:
    kind = raw.get("kind", "periodicSensor")
    if kind not in ("periodicSensor", "nfcReader"):
        raise ScenarioError(f"unknown device kind {kind!r}")
    if not raw.get("id") or not raw.get("topic"):
        raise ScenarioError("devices need an id and a topic")
    where = f"device {raw['id']!r}"
    model = raw.get("valueModel") or {}
    if not isinstance(model, dict):
        raise ScenarioError(f"{where} valueModel must be an object")
    period = _int(raw.get("period_ms", 0), f"{where} period_ms")
    if kind == "periodicSensor" and period <= 0:
        raise ScenarioError(f"{where} needs a positive period_ms")
    reads = [(_int(r.get("at_ms"), f"{where} read at_ms"), r.get("value"))
             for r in _objects(raw, "reads", f"{where} ")]
    return VirtualDevice(
        id=raw["id"], kind=kind, topic=raw["topic"], period=period,
        base=_numbers(model.get("base", 0.0), f"{where} valueModel.base"),
        noise_amp=_numbers(model.get("noiseAmp", 0.0), f"{where} valueModel.noiseAmp", True),
        reads=sorted(reads), online=bool(raw.get("online", True)))


def _parse_instance(raw: dict) -> InstanceSpec:
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("instances need a name")
    if name == WORLD_INSTANCE:
        raise ScenarioError(f"instance name {name!r} is reserved for world events")
    try:
        election_key(raw.get("address"))
    except ValueError as exc:
        raise ScenarioError(f"instance {name!r}: {exc}") from None
    return InstanceSpec(name=name, address=raw["address"])


def _parse_world(raw: Optional[dict]) -> WorldSpec:
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ScenarioError("world must be an object")
    devices = [_parse_device(d) for d in _objects(raw, "devices", "world.")]
    services = []
    for s in _objects(raw, "services", "world."):
        if not s.get("id"):
            raise ScenarioError("services need an id")
        services.append(Service(id=s["id"], host=s.get("host", s["id"]),
                                port=_int(s.get("port", 80), f"service {s['id']!r} port")))
    instances = [_parse_instance(i) for i in _objects(raw, "instances", "world.")]
    return WorldSpec(devices, services, instances)


def parse_scenario(text: str) -> ScenarioScript:
    """Parse and validate a scenario document; events are sorted by time."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario syntax error: {exc.msg} "
                            f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")

    duration = doc.get("duration_ms")
    if not isinstance(duration, int) or duration < 0:
        raise ScenarioError("duration_ms must be a non-negative integer")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ScenarioError("seed must be a non-negative integer")

    events = []
    for raw in _objects(doc, "events"):
        kind = raw.get("kind")
        if kind not in FAULT_KINDS:
            raise ScenarioError(f"unknown fault kind {kind!r}")
        at = raw.get("at_ms")
        if not isinstance(at, int) or at < 0:
            raise ScenarioError(f"fault {kind!r} needs a non-negative at_ms")
        target = raw.get("target")
        if not isinstance(target, str) or not target:
            raise ScenarioError(f"fault {kind!r} needs a target id")
        params = raw.get("params") or {}
        if not isinstance(params, dict):
            raise ScenarioError(f"fault {kind!r} params must be an object")
        if kind == "net_delay":
            delay = params.get("delay_ms", 0)
            if not isinstance(delay, int) or delay < 0:
                raise ScenarioError("net_delay needs a non-negative delay_ms param")
        events.append(FaultEvent(at=at, kind=kind, target=target, params=params))
    events.sort(key=lambda e: e.at)
    if events and events[-1].at > duration:
        raise ScenarioError("duration_ms must cover every event time")

    script = ScenarioScript(seed=seed, duration=duration, events=events,
                            world=_parse_world(doc.get("world")))
    validate_script(script)
    return script


def validate_script(script: ScenarioScript, extra_instances: tuple = ()) -> None:
    """Check every fault target against the declared world."""
    device_ids = {d.id for d in script.world.devices}
    service_ids = {s.id for s in script.world.services}
    instance_ids = {i.name for i in script.world.instances} | set(extra_instances)
    for event in script.events:
        if event.kind in _DEVICE_FAULTS and event.target not in device_ids:
            raise ScenarioError(f"{event.kind} targets unknown device {event.target!r}")
        if event.kind in _SERVICE_FAULTS and event.target not in service_ids:
            raise ScenarioError(f"{event.kind} targets unknown service {event.target!r}")
        if event.kind in _INSTANCE_FAULTS and event.target not in instance_ids:
            raise ScenarioError(f"{event.kind} targets unknown instance {event.target!r}")
        if event.kind == "net_delay" and event.target not in device_ids | instance_ids:
            raise ScenarioError(f"net_delay targets unknown source {event.target!r}")
