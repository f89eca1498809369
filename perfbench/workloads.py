"""Seeded generators for the benchmark workloads, plus the fixture pairs.

A workload is the set of documents `healflow run` would be given: one flow
document per instance and one scenario document. Every value in them comes
from the seed, so the same seed gives the same bytes. The program under
test only ever sees the generated text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    params: dict
    flows: tuple        # flow document text, one per instance
    scenario: str       # scenario document text
    passes: int = 1     # runs over one store dir; a workload with passes > 1 uses a disk store

    @property
    def uses_disk(self) -> bool:
        return self.passes > 1


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def _node(node_id, kind, flow, config=None, wires=(), enabled=True):
    node = {"id": node_id, "type": kind, "flow": flow, "config": config or {},
            "wires": [list(map(list, port)) for port in wires]}
    if not enabled:
        node["enabled"] = False
    return node


def _staggered_periods(rng, count, period_ms):
    # Sensors all start at t=0, so distinct periods are what spreads their
    # readings out. The periods are evenly spaced over +-5% and the seed only
    # deals them out, so the total reading count is the same at every seed.
    jitter = period_ms // 20
    step = 2 * jitter / max(count - 1, 1)
    periods = [round(period_ms - jitter + i * step) for i in range(count)]
    rng.shuffle(periods)
    return periods


def sensor_fanout(seed: int) -> Workload:
    """One flow_a instance fed by many dict-valued sensors on one topic.

    Every reading crosses the 12-node pipeline, so dispatch, envelope forks,
    the timeline, CSV and the report do nearly all the work. A fifth of the
    sensors drop out for a window, and one outage silences all of them for
    longer than the watchdogs allow, so compensate substitutes and heartbeat
    errors fire too.
    """
    rng = random.Random(f"sensor_fanout/{seed}")
    params = {"sensors": 20, "period_ms": 1000, "duration_ms": 120_000,
              "offline_share": 0.2, "offline_ms": 15_000, "outage_ms": 21_000,
              "compensate_interval_ms": 5_000, "heartbeat_timeout_ms": 8_000}
    n, duration = params["sensors"], params["duration_ms"]
    strategies = ["last", "avg", "max", "min"]
    comp = {"interval": params["compensate_interval_ms"], "historyMaxSize": 10}
    flow = {"nodes": [
        _node("dht-in", "mqtt-in", "ingest", {"topic": "lab/dht"},
              [[("hb", 0), ("temp", 0), ("hum", 0)]]),
        _node("hb", "heartbeat", "ingest",
              {"timeout": params["heartbeat_timeout_ms"], "mode": "passive"},
              [[], [], [("hb-sink", 0)]]),
        _node("temp", "extract", "ingest", {"key": "temperature"}, [[("temp-check", 0)]]),
        _node("hum", "extract", "ingest", {"key": "humidity"}, [[("hum-check", 0)]]),
        _node("temp-check", "threshold-check", "ingest", {"low": 0, "high": 50},
              [[("temp-comp", 0)]]),
        _node("hum-check", "threshold-check", "ingest", {"low": 20, "high": 90},
              [[("hum-comp", 0)]]),
        _node("temp-comp", "compensate", "ingest",
              {**comp, "strategy": rng.choice(strategies)}, [[("temp-ckpt", 0)]]),
        _node("hum-comp", "compensate", "ingest",
              {**comp, "strategy": rng.choice(strategies)}, [[("hum-ckpt", 0)]]),
        _node("temp-ckpt", "checkpoint", "ingest", {"timeToLive": 300_000}, [[("out", 0)]]),
        _node("hum-ckpt", "checkpoint", "ingest", {"timeToLive": 300_000}, [[("out", 0)]]),
        _node("hb-sink", "debug", "ingest"),
        _node("out", "debug", "ingest"),
    ]}
    periods = _staggered_periods(rng, n, params["period_ms"])
    devices = [{
        "id": f"dht-{i:02d}", "kind": "periodicSensor", "topic": "lab/dht",
        "period_ms": periods[i],
        "valueModel": {
            "base": {"temperature": round(rng.uniform(18, 26), 2),
                     "humidity": round(rng.uniform(40, 60), 2)},
            "noiseAmp": {"temperature": 1.5, "humidity": 4.0}},
    } for i in range(n)]
    events = []
    # Single drop-outs fall in the first half and the outage in the second,
    # so they never overlap and every seed loses the same share of readings.
    for i in rng.sample(range(n), int(n * params["offline_share"])):
        start = rng.randrange(10_000, duration // 2 - params["offline_ms"] - 5_000, 1000)
        events.append({"at_ms": start, "kind": "device_offline", "target": f"dht-{i:02d}"})
        events.append({"at_ms": start + params["offline_ms"], "kind": "device_online",
                       "target": f"dht-{i:02d}"})
    outage = rng.randrange(duration // 2, duration - params["outage_ms"] - 5_000, 1000)
    for dev in devices:
        events.append({"at_ms": outage, "kind": "device_offline", "target": dev["id"]})
        events.append({"at_ms": outage + params["outage_ms"], "kind": "device_online",
                       "target": dev["id"]})
    scenario = {"seed": seed, "duration_ms": duration,
                "world": {"devices": devices}, "events": events}
    return Workload("sensor_fanout", seed, params, (_dump(flow),), _dump(scenario))


def _flow_c(election_timeout: int) -> dict:
    """The flow_c redundancy pair: control flow-group plus a gated ingest group."""
    return {"nodes": [
        _node("red", "redundancy", "control",
              {"electionTimeout": election_timeout, "controlledFlows": ["ingest"]},
              [[("fctl", 0)], [("role-dedup", 0)]]),
        _node("fctl", "flow-control", "control", {}, [[], []]),
        _node("role-dedup", "rbe", "control", {}, [[("notify", 0)]]),
        _node("notify", "http-post", "control", {"service": "notify"}),
        _node("sensor-in", "mqtt-in", "ingest", {"topic": "lab/dht"}, [[("temp", 0)]],
              enabled=False),
        _node("temp", "extract", "ingest", {"key": "temperature"}, [[("check", 0)]],
              enabled=False),
        _node("check", "threshold-check", "ingest", {"low": 0, "high": 50},
              [[("watch", 0)]], enabled=False),
        _node("watch", "readings-watcher", "ingest", {"maxDelta": 10, "stuckCount": 3},
              [[("post", 0)]], enabled=False),
        _node("post", "http-post", "ingest", {"service": "telemetry"}, enabled=False),
    ]}


def failover_cycles(seed: int) -> Workload:
    """Five flow_c instances pinging every 200 ms, with the master crashing.

    The clock heap and the cluster ping/expiry path do the work; one slow
    sensor keeps the timeline small, so dispatch, CSV and report barely run.
    """
    rng = random.Random(f"failover_cycles/{seed}")
    params = {"instances": 5, "election_timeout_ms": 1000, "sensor_period_ms": 1000,
              "crash_every_ms": 60_000, "down_ms": 30_000, "duration_ms": 600_000}
    octets = rng.sample(range(2, 255), params["instances"])
    instances = [{"name": f"red-{i}", "address": f"192.168.{rng.randrange(256)}.{o}"}
                 for i, o in enumerate(octets)]
    # The highest last octet wins every election, and it restarts before the
    # next crash, so it is the master each time a crash is due.
    master = instances[octets.index(max(octets))]["name"]
    events = []
    for at in range(params["crash_every_ms"], params["duration_ms"], params["crash_every_ms"]):
        events.append({"at_ms": at, "kind": "instance_crash", "target": master})
        events.append({"at_ms": at + params["down_ms"], "kind": "instance_restart",
                       "target": master})
    scenario = {"seed": seed, "duration_ms": params["duration_ms"], "events": events,
                "world": {
                    "devices": [{"id": "dht-1", "kind": "periodicSensor", "topic": "lab/dht",
                                 "period_ms": params["sensor_period_ms"],
                                 "valueModel": {"base": {"temperature": round(rng.uniform(18, 26), 2)},
                                                "noiseAmp": {"temperature": 1.0}}}],
                    "services": [{"id": "telemetry", "port": 9000},
                                 {"id": "notify", "port": 9001}],
                    "instances": instances}}
    flow = _dump(_flow_c(params["election_timeout_ms"]))
    return Workload("failover_cycles", seed, params, (flow,) * params["instances"],
                    _dump(scenario))


def checkpoint_restart(seed: int) -> Workload:
    """A chain of checkpoint nodes on a disk store, crashing every minute.

    Each hop appends one record to the store file, and each restart replays
    the chain. The same documents then run a second time over the store dir
    the first run left, so that run's set-up reloads the whole file.
    """
    rng = random.Random(f"checkpoint_restart/{seed}")
    params = {"sensors": 10, "period_ms": 1000, "chain": 8, "duration_ms": 150_000,
              "crash_every_ms": 60_000, "down_ms": 5_000, "time_to_live_ms": 600_000,
              "passes": 2}
    chain = [f"ckpt-{i}" for i in range(1, params["chain"] + 1)]
    nodes = [_node("in", "mqtt-in", "main", {"topic": "lab/+"}, [[(chain[0], 0)]])]
    for node_id, nxt in zip(chain, chain[1:] + ["archive"]):
        nodes.append(_node(node_id, "checkpoint", "main",
                           {"timeToLive": params["time_to_live_ms"]}, [[(nxt, 0)]]))
    nodes.append(_node("archive", "http-post", "main", {"service": "archive"}))
    periods = _staggered_periods(rng, params["sensors"], params["period_ms"])
    devices = [{"id": f"probe-{i:02d}", "kind": "periodicSensor", "topic": f"lab/s{i:02d}",
                "period_ms": periods[i],
                "valueModel": {"base": round(rng.uniform(0, 100), 2), "noiseAmp": 2.0}}
               for i in range(params["sensors"])]
    name = "edge-1"
    events = []
    for at in range(params["crash_every_ms"], params["duration_ms"], params["crash_every_ms"]):
        events.append({"at_ms": at, "kind": "instance_crash", "target": name})
        events.append({"at_ms": at + params["down_ms"], "kind": "instance_restart",
                       "target": name})
    scenario = {"seed": seed, "duration_ms": params["duration_ms"], "events": events,
                "world": {"devices": devices, "services": [{"id": "archive", "port": 8000}],
                          "instances": [{"name": name,
                                         "address": f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}"}]}}
    return Workload("checkpoint_restart", seed, params, (_dump({"nodes": nodes}),),
                    _dump(scenario), passes=params["passes"])


GENERATORS = {
    "sensor_fanout": sensor_fanout,
    "failover_cycles": failover_cycles,
    "checkpoint_restart": checkpoint_restart,
}

# Fixture pair name -> (flow files, one per instance; scenario file).
FIXTURE_PAIRS = {
    "flow_a+scenario_a": (("flow_a.json",), "scenario_a.json"),
    "flow_b+scenario_b": (("flow_b.json",), "scenario_b.json"),
    "flow_c*2+scenario_c_loss": (("flow_c.json", "flow_c.json"), "scenario_c_loss.json"),
}


def generate(name: str, seed: int) -> Workload:
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[name](seed)


def fixture(name: str) -> Workload:
    flows, scenario = FIXTURE_PAIRS[name]
    text = {f: (FIXTURES / f).read_text(encoding="utf-8") for f in {*flows, scenario}}
    return Workload(name, json.loads(text[scenario])["seed"], {},
                    tuple(text[f] for f in flows), text[scenario])
