"""Scenario scripts: the world declaration plus time-ordered fault events.

Scenario file schema (UTF-8 JSON):

    {"seed": u64, "duration_ms": u64,
     "world": {"devices": [...], "services": [...], "instances": [...]},
     "events": [{"at_ms": u64, "kind": str, "target": str, "params": {...}}]}

The world section is optional; without it a run gets auto-named instances
and an empty inventory. A fault kind is one row of FAULTS, which
parse_scenario checks events against and apply_fault applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster import election_key
from ..core.envelope import decode_document, is_number
from ..core.timeline import WORLD_INSTANCE, csv_safe
from .world import Service, VirtualDevice

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


def _object(value, what: str) -> dict:
    """value when it is a JSON object; absent or null reads as an empty one."""
    if value is not None and not isinstance(value, dict):
        raise ScenarioError(f"{what} must be an object")
    return value or {}


def _int(value, what: str) -> int:
    """value when it is a non-negative integer; bools, floats and strings are not."""
    if type(value) is not int or value < 0:
        raise ScenarioError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _name(value, what: str) -> str:
    """value when it is a non-empty string that the timeline CSV can hold."""
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{what} must be a non-empty string, got {value!r}")
    if not csv_safe(value):
        raise ScenarioError(f"{what} {value!r} holds a NUL")
    return value


def _float(value, what: str) -> float:
    """A number as the float the world draws from; one no float holds is an error."""
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{what} is too large for a float") from None


def _numbers(value, what: str, nonnegative: bool = False):
    """value, a number or an object of numbers, none negative if asked, as floats."""
    for v in value.values() if isinstance(value, dict) else (value,):
        if not is_number(v) or (nonnegative and v < 0):
            sort = "non-negative number" if nonnegative else "number"
            raise ScenarioError(f"{what} must be a {sort} or an object of them, got {value!r}")
    if isinstance(value, dict):
        return {k: _float(v, f"{what} field {k!r}") for k, v in value.items()}
    return _float(value, what)


def _amp(params: dict) -> float:
    """value_noise's amp: a non-negative number, as a float; 0.0 when absent."""
    amp = params.get("amp", 0.0)
    if not is_number(amp) or amp < 0:
        raise ScenarioError(f"value_noise amp must be a non-negative number, got {amp!r}")
    return _float(amp, "value_noise amp")


def _no_value(params: dict) -> None:
    """The reader of a kind that takes no params: any given are logged and unused."""


# One row per fault kind: what its target names (a device, an instance, a
# service, or a source: a device or an instance), the reader that checks its
# params and returns the value it uses, and its effect on the World given the
# target and that value. parse_scenario and apply_fault both read this table.
FAULTS = {
    "device_offline": ("device", _no_value, lambda w, t, v: w.set_device_online(t, False)),
    "device_online": ("device", _no_value, lambda w, t, v: w.set_device_online(t, True)),
    "instance_crash": ("instance", _no_value, lambda w, t, v: w.engines[t].halt()),
    "instance_restart": ("instance", _no_value, lambda w, t, v: w.engines[t].restart()),
    "net_delay": ("source", lambda p: _int(p.get("delay_ms", 0), "net_delay delay_ms"),
                  lambda w, t, v: w.delays.update({t: v})),
    "value_noise": ("device", _amp, lambda w, t, v: setattr(w.devices[t], "extra_noise", v)),
    "stuck_value": ("device", lambda p: p.get("value"),
                    lambda w, t, v: setattr(w.devices[t], "stuck", v)),
    "service_down": ("service", _no_value, lambda w, t, v: setattr(w.services[t], "up", False)),
    "service_up": ("service", _no_value, lambda w, t, v: setattr(w.services[t], "up", True)),
}


def _parse_device(raw: dict) -> VirtualDevice:
    kind = raw.get("kind", "periodicSensor")
    if kind not in ("periodicSensor", "nfcReader"):
        raise ScenarioError(f"unknown device kind {kind!r}")
    dev_id = _name(raw.get("id"), "device id")
    where = f"device {dev_id!r}"
    topic = _name(raw.get("topic"), f"{where} topic")
    model = _object(raw.get("valueModel"), f"{where} valueModel")
    period = _int(raw.get("period_ms", 0), f"{where} period_ms")
    if kind == "periodicSensor" and period <= 0:
        raise ScenarioError(f"{where} needs a positive period_ms")
    reads = [(_int(r.get("at_ms"), f"{where} read at_ms"), r.get("value"))
             for r in _objects(raw, "reads", f"{where} ")]
    online = raw.get("online", True)
    if not isinstance(online, bool):
        raise ScenarioError(f"{where} online must be true or false, got {online!r}")
    base = _numbers(model.get("base", 0.0), f"{where} valueModel.base")
    amp = _numbers(model.get("noiseAmp", 0.0), f"{where} valueModel.noiseAmp", True)
    if isinstance(amp, dict) and not (isinstance(base, dict) and amp.keys() <= base.keys()):
        raise ScenarioError(f"{where} valueModel.noiseAmp, an object, needs an object base "
                            "with each of its fields")
    return VirtualDevice(id=dev_id, kind=kind, topic=topic, period=period, base=base,
                         noise_amp=amp, reads=sorted(reads), online=online)


def _parse_instance(raw: dict) -> InstanceSpec:
    name = _name(raw.get("name"), "instance name")
    if name == WORLD_INSTANCE:
        raise ScenarioError(f"instance name {name!r} is reserved for world events")
    if "/" in name:  # the store is the file {name}.store in --store-dir
        raise ScenarioError(f"instance name {name!r} holds a '/'")
    try:
        election_key(raw.get("address"))
    except ValueError as exc:
        raise ScenarioError(f"instance {name!r}: {exc}") from None
    return InstanceSpec(name=name, address=raw["address"])


def _parse_world(raw: Optional[dict]) -> WorldSpec:
    raw = _object(raw, "world")
    devices = [_parse_device(d) for d in _objects(raw, "devices", "world.")]
    services = []
    for s in _objects(raw, "services", "world."):
        sid = _name(s.get("id"), "service id")
        services.append(Service(id=sid, host=_name(s.get("host", sid), f"service {sid!r} host"),
                                port=_int(s.get("port", 80), f"service {sid!r} port")))
    instances = [_parse_instance(i) for i in _objects(raw, "instances", "world.")]
    for what, names in (("instance name", [i.name for i in instances]),
                        ("instance address", [i.address for i in instances]),
                        ("device id", [d.id for d in devices]),
                        ("service id", [s.id for s in services])):
        if len(set(names)) < len(names):
            name = next(n for i, n in enumerate(names) if n in names[:i])
            raise ScenarioError(f"duplicate {what} {name!r}")
    return WorldSpec(devices, services, instances)


def parse_scenario(text: str) -> ScenarioScript:
    """Parse and check a scenario document; events are sorted by time.

    This is the one check a script gets: Simulation takes it as given.
    """
    doc = decode_document(text, "scenario", ScenarioError)
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")

    duration = _int(doc.get("duration_ms"), "duration_ms")
    seed = _int(doc.get("seed", 0), "seed")
    world = _parse_world(doc.get("world"))
    ids = {"device": {d.id for d in world.devices},
           "service": {s.id for s in world.services},
           "instance": {i.name for i in world.instances}}
    ids["source"] = ids["device"] | ids["instance"]

    events = []
    for raw in _objects(doc, "events"):
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in FAULTS:
            raise ScenarioError(f"unknown fault kind {kind!r}")
        sort, read, _ = FAULTS[kind]
        at = _int(raw.get("at_ms"), f"fault {kind!r} at_ms")
        target = _name(raw.get("target"), f"fault {kind!r} target")
        if target not in ids[sort]:
            raise ScenarioError(f"{kind} targets unknown {sort} {target!r}")
        params = _object(raw.get("params"), f"fault {kind!r} params")
        read(params)
        events.append(FaultEvent(at=at, kind=kind, target=target, params=params))
    events.sort(key=lambda e: e.at)
    if events and events[-1].at > duration:
        raise ScenarioError("duration_ms must cover every event time")
    return ScenarioScript(seed=seed, duration=duration, events=events, world=world)
