"""The virtual world: devices, services, hosts, the pub/sub broker and the transport.

The world owns the run's one clock, timeline and ping transport. Devices are
world-owned (their emissions are logged under the pseudo-instance
WORLD_INSTANCE and published to the broker); engines attach by adding
themselves to `engines` and subscribing node ids to topic patterns. Broker
deliveries are scheduled events, never synchronous calls into another engine,
which keeps the instance interleaving deterministic: at equal timestamps,
faults apply first, then world events, then engines in the order they joined;
within an engine, deliveries, then node timers, then cluster timers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ..cluster import LoopbackTransport
from ..core.clock import VirtualClock
from ..core.envelope import topic_matches
from ..core.timeline import WORLD_INSTANCE, TimelineLog

RANK_FAULT = 0
RANK_WORLD = 1
RANK_INSTANCE_BASE = 2


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
    """Shared simulated environment; `engines` maps instance names to engines in join order.

    The broker holds each subscription once, in the order first subscribed,
    and routes each published topic to the subscriptions it matches, in that
    order. subscribe is the one change to the routes: a new key clears them,
    and a restarted engine re-subscribing adds no key.
    """

    def __init__(self, seed: int = 0, devices: list[VirtualDevice] = (),
                 services: list[Service] = ()):
        self.clock = VirtualClock()
        self.log = TimelineLog()
        self.transport = LoopbackTransport(self.clock)
        self.seed = seed
        # Own copies: faults mutate them, and a script may be run again.
        self.devices = {d.id: VirtualDevice(**vars(d)) for d in devices}
        self.services = {s.id: Service(**vars(s)) for s in services}
        self.engines: dict[str, Any] = {}
        self.delays: dict[str, int] = {}  # per-source constant net delay
        self._subs: dict[tuple[str, str, str], None] = {}
        self._routes: dict[str, list[tuple[str, str]]] = {}  # topic -> matching subs
        self._rngs = {d: random.Random(f"{seed}/device/{d}") for d in self.devices}

    # --- engine attachment ----------------------------------------------------
    def rank(self, instance: str) -> int:
        """The clock rank of an instance's engine: RANK_INSTANCE_BASE plus its join order.

        A dict keeps insertion order, and a restart reassigns its key, so a
        restarted engine keeps its rank.
        """
        names = list(self.engines)
        return RANK_INSTANCE_BASE + (names.index(instance) if instance in names else len(names))

    def subscribe(self, instance: str, node_id: str, pattern: str) -> None:
        # Keyed so a restarted engine re-subscribing keeps the order and routes.
        key = (instance, node_id, pattern)
        if key not in self._subs:
            self._subs[key] = None
            self._routes.clear()

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

        Each delivery is an event at the subscriber's delivery rank, one per
        matching subscription, scheduled in subscription order. Every
        subscriber gets the payload object itself, as Envelope states. A
        topic's route, its matching (instance, node id) pairs, is built by
        topic_matches on its first publish and kept until a subscribe adds a
        new key.
        """
        route = self._routes.get(topic)
        if route is None:
            route = self._routes[topic] = [
                (instance, node_id) for (instance, node_id, pattern) in self._subs
                if topic_matches(pattern, topic)]
        delay = self.delays.get(source, 0)
        for instance, node_id in route:
            deliver = partial(self._deliver, instance, node_id, topic, payload)
            self.clock.after(delay, deliver, self.engines[instance].rank_deliver)

    def _deliver(self, instance: str, node_id: str, topic: str, payload) -> None:
        # Looked up when the delivery fires: a restart replaces the engine.
        self.engines[instance].deliver_external(node_id, topic, payload)

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
        """Draw the next reading: base + uniform noise, or the stuck value itself, shared."""
        if dev.stuck is not None:
            return dev.stuck
        rng = self._rngs[dev.id]

        def one(base, amp):
            noise = rng.uniform(-amp, amp) if amp else 0.0
            extra = rng.uniform(-dev.extra_noise, dev.extra_noise) if dev.extra_noise else 0.0
            return base + noise + extra

        amp = dev.noise_amp
        if isinstance(dev.base, dict):
            # A number amp applies to every field, an object one field by field.
            amps = amp if isinstance(amp, dict) else dict.fromkeys(dev.base, amp)
            return {k: one(dev.base[k], amps.get(k, 0.0)) for k in sorted(dev.base)}
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
