"""Co-simulator: all instances, devices, broker and faults in one World."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..core.engine import Engine
from ..core.graph import FlowGraph
from ..core.timeline import WORLD_INSTANCE, TimelineLog
from ..persistence import Store
from .scenario import FaultEvent, InstanceSpec, ScenarioError, ScenarioScript, validate_script
from .world import RANK_FAULT, RANK_INSTANCE_BASE, World


def apply_fault(fault: FaultEvent, world: World) -> None:
    """Mutate the world for one device/service/link fault.

    Instance faults are handled by the Simulation, which owns the engines.
    """
    if fault.kind == "device_offline":
        world.set_device_online(fault.target, False)
    elif fault.kind == "device_online":
        world.set_device_online(fault.target, True)
    elif fault.kind == "service_down":
        world.set_service_up(fault.target, False)
    elif fault.kind == "service_up":
        world.set_service_up(fault.target, True)
    elif fault.kind == "net_delay":
        world.delays[fault.target] = fault.params.get("delay_ms", 0)
    elif fault.kind == "stuck_value":
        world.devices[fault.target].stuck = fault.params.get("value")
    elif fault.kind == "value_noise":
        world.devices[fault.target].extra_noise = fault.params.get("amp", 0.0)
    else:
        raise ScenarioError(f"fault kind {fault.kind!r} is not world-level")


class Simulation:
    """One scenario run: flows per instance and scripted faults, all in `world`."""

    def __init__(self, flows: list[FlowGraph], script: ScenarioScript, *,
                 seed: Optional[int] = None, store_dir: Optional[str] = None):
        self.script = script
        self.seed = script.seed if seed is None else seed
        self.flows = flows

        self.instances = list(script.world.instances)
        if not self.instances:
            self.instances = [InstanceSpec(f"instance-{i}", f"10.0.0.{i + 1}")
                              for i in range(len(flows))]
        if len(self.instances) != len(flows):
            raise ScenarioError(
                f"{len(flows)} flow document(s) for {len(self.instances)} declared instance(s)")
        validate_script(script, extra_instances=tuple(i.name for i in self.instances))

        self.world = World(seed=self.seed, devices=script.world.devices,
                           services=script.world.services)

        base = Path(store_dir) if store_dir else None
        if base is not None:
            base.mkdir(parents=True, exist_ok=True)
        self.stores = {
            spec.name: Store(base / f"{spec.name}.store" if base else None)
            for spec in self.instances
        }
        for index in range(len(self.instances)):
            self._build_engine(index)

    def _build_engine(self, index: int) -> Engine:
        spec = self.instances[index]
        return Engine(self.flows[index], instance=spec.name, address=spec.address,
                      seed=self.seed, store=self.stores[spec.name], world=self.world,
                      rank=RANK_INSTANCE_BASE + index)

    def run(self) -> TimelineLog:
        for event in self.script.events:
            self.world.clock.at(event.at, lambda e=event: self._apply(e), rank=RANK_FAULT)
        self.world.start_devices()
        for engine in self.world.engines.values():
            engine.start()
        self.world.clock.run_until(self.script.duration)
        return self.world.log

    def _apply(self, fault: FaultEvent) -> None:
        world = self.world
        world.log.add(world.clock.now, WORLD_INSTANCE, "fault", fault.target,
                      value={"kind": fault.kind, **({"params": fault.params}
                                                    if fault.params else {})})
        if fault.kind == "instance_crash":
            world.engines[fault.target].halt()
        elif fault.kind == "instance_restart":
            index = next(i for i, s in enumerate(self.instances) if s.name == fault.target)
            world.engines[fault.target].halt()
            self._build_engine(index).start()
        else:
            apply_fault(fault, self.world)
