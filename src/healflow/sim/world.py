"""The virtual world: devices, services, hosts and the pub/sub broker.

Everything shares one clock and one timeline. Devices are world-owned (their
emissions are logged under the pseudo-instance "world" and published to the
broker); engines attach by registering themselves and subscribing node ids
to topic patterns. Broker deliveries are scheduled events, never synchronous
calls into another engine, which keeps the instance interleaving
deterministic: at equal timestamps, faults apply first, then world events,
then engines in instance order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from ..core.clock import VirtualClock
from ..core.envelope import copy_json, topic_matches
from ..core.timeline import TimelineLog

RANK_FAULT = 0
RANK_WORLD = 1
RANK_INSTANCE_BASE = 2

WORLD_INSTANCE = "world"


@dataclass
class VirtualDevice:
    id: str
    kind: str  # "periodicSensor" | "nfcReader"
    topic: str
    period: int = 0
    base: Any = 0.0
    noise_amp: Any = 0.0
    reads: list = field(default_factory=list)  # [(at_ms, value)] for nfcReader
    online: bool = True
    stuck: Any = None
    extra_noise: float = 0.0


@dataclass
class Service:
    id: str
    host: str
    port: int
    up: bool = True


class World:
    """Shared simulated environment for any number of engines."""

    def __init__(self, clock: VirtualClock, log: TimelineLog, seed: int = 0,
                 devices: list[VirtualDevice] = (), services: list[Service] = ()):
        self.clock = clock
        self.log = log
        self.seed = seed
        self.devices = {d.id: d for d in devices}
        self.services = {s.id: s for s in services}
        self.engines: dict[str, Any] = {}
        self.ranks: dict[str, int] = {}
        self.delays: dict[str, int] = {}  # per-source constant net delay
        self._subs: dict[tuple[str, str, str], None] = {}
        self._rngs = {d: random.Random(f"{seed}/device/{d}") for d in self.devices}

    # --- engine attachment ----------------------------------------------------
    def register_engine(self, instance: str, engine, rank: int) -> None:
        self.engines[instance] = engine
        self.ranks[instance] = rank

    def subscribe(self, instance: str, node_id: str, pattern: str) -> None:
        # Keyed so a restarted engine re-subscribing keeps the original order.
        self._subs[(instance, node_id, pattern)] = None

    # --- inventories -------------------------------------------------------------
    def hosts(self) -> list[str]:
        """Online devices plus running instances, the network-scan view."""
        up = [d.id for d in self.devices.values() if d.online]
        up += [name for name, eng in self.engines.items() if not eng.halted]
        return sorted(up)

    def services_up(self) -> list[Service]:
        return [self.services[k] for k in sorted(self.services) if self.services[k].up]

    # --- pub/sub ---------------------------------------------------------------
    def publish(self, topic: str, payload, source: str) -> None:
        """Deliver to every matching subscription, honoring net_delay faults.

        Each subscription gets its own copy_json copy of the payload.
        """
        delay = self.delays.get(source, 0)
        for (instance, node_id, pattern) in self._subs:
            if not topic_matches(pattern, topic):
                continue
            self.clock.after(
                delay, partial(self._deliver, instance, node_id, topic, copy_json(payload)),
                rank=self.ranks.get(instance, RANK_INSTANCE_BASE))

    def _deliver(self, instance: str, node_id: str, topic: str, payload) -> None:
        engine = self.engines.get(instance)
        if engine is None or engine.halted:
            self.log.add(self.clock.now, instance, "drop", node_id, None, topic, payload)
            return
        engine.deliver_external(node_id, topic, payload)

    # --- devices ---------------------------------------------------------------
    def start_devices(self) -> None:
        for dev in self.devices.values():
            if dev.kind == "periodicSensor":
                self.clock.at(dev.period, partial(self._sensor_tick, dev), rank=RANK_WORLD)
            else:
                for at, value in dev.reads:
                    self.clock.at(at, partial(self._device_emit, dev, value), rank=RANK_WORLD)

    def _sensor_tick(self, dev: VirtualDevice) -> None:
        # Reschedule before emitting so the next tick's timer predates any
        # timers armed by the cascade this emission triggers.
        self.clock.after(dev.period, partial(self._sensor_tick, dev), rank=RANK_WORLD)
        if not dev.online:
            return
        self._device_emit(dev, self.sensor_value(dev))

    def sensor_value(self, dev: VirtualDevice):
        """Draw the next reading: base + uniform noise, or the stuck value."""
        if dev.stuck is not None:
            return copy_json(dev.stuck)
        rng = self._rngs[dev.id]

        def one(base, amp):
            noise = rng.uniform(-amp, amp) if amp else 0.0
            extra = rng.uniform(-dev.extra_noise, dev.extra_noise) if dev.extra_noise else 0.0
            return base + noise + extra

        if isinstance(dev.base, dict):
            amps = dev.noise_amp if isinstance(dev.noise_amp, dict) else {}
            return {k: one(dev.base[k], amps.get(k, 0.0)) for k in sorted(dev.base)}
        amp = dev.noise_amp if not isinstance(dev.noise_amp, dict) else 0.0
        return one(dev.base, amp)

    def _device_emit(self, dev: VirtualDevice, value) -> None:
        if not dev.online:
            return
        self.log.add(self.clock.now, WORLD_INSTANCE, "emit", dev.id, 0, dev.topic, value)
        self.publish(dev.topic, value, source=dev.id)

    def set_device_online(self, device_id: str, online: bool) -> None:
        dev = self.devices[device_id]
        was_online = dev.online
        dev.online = online
        if online and not was_online and dev.kind == "periodicSensor":
            # Power-on reading: real sensors report right after boot, out of
            # phase with the periodic schedule.
            self._device_emit(dev, self.sensor_value(dev))

    def set_service_up(self, service_id: str, up: bool) -> None:
        self.services[service_id].up = up
