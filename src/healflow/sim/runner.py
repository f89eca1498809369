"""Co-simulator: all instances, devices and broker in one World; apply_fault applies faults."""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Optional

from ..core.engine import Engine
from ..core.graph import FlowGraph
from ..core.timeline import WORLD_INSTANCE, TimelineLog
from ..persistence import Store
from .scenario import FaultEvent, InstanceSpec, ScenarioError, ScenarioScript, validate_script
from .world import RANK_FAULT, World


def apply_fault(fault: FaultEvent, world: World) -> None:
    """Log one fault entry, then apply the fault of any kind to the world."""
    world.log.add(world.clock.now, WORLD_INSTANCE, "fault", fault.target,
                  value={"kind": fault.kind, **({"params": fault.params}
                                                if fault.params else {})})
    if fault.kind == "instance_crash":
        world.engines[fault.target].halt()
    elif fault.kind == "instance_restart":
        world.engines[fault.target].restart()
    elif fault.kind == "device_offline":
        world.set_device_online(fault.target, False)
    elif fault.kind == "device_online":
        world.set_device_online(fault.target, True)
    elif fault.kind == "service_down":
        world.services[fault.target].up = False
    elif fault.kind == "service_up":
        world.services[fault.target].up = True
    elif fault.kind == "net_delay":
        world.delays[fault.target] = fault.params.get("delay_ms", 0)
    elif fault.kind == "stuck_value":
        world.devices[fault.target].stuck = fault.params.get("value")
    elif fault.kind == "value_noise":
        world.devices[fault.target].extra_noise = fault.params.get("amp", 0.0)
    else:
        raise ScenarioError(f"unknown fault kind {fault.kind!r}")


class Simulation:
    """One scenario run: an engine per flow in `world`, and each scripted fault via apply_fault."""

    def __init__(self, flows: list[FlowGraph], script: ScenarioScript, *,
                 seed: Optional[int] = None, store_dir: Optional[str] = None):
        self.script = script
        instances = script.world.instances or [
            InstanceSpec(f"instance-{i}", f"10.0.0.{i + 1}") for i in range(len(flows))]
        if len(instances) != len(flows):
            raise ScenarioError(
                f"{len(flows)} flow document(s) for {len(instances)} declared instance(s)")
        validate_script(script, extra_instances=tuple(i.name for i in instances))

        self.world = World(seed=script.seed if seed is None else seed,
                           devices=script.world.devices, services=script.world.services)
        base = Path(store_dir) if store_dir else None
        if base is not None:
            base.mkdir(parents=True, exist_ok=True)
        for flow, spec in zip(flows, instances):
            Engine(flow, instance=spec.name, address=spec.address, world=self.world,
                   store=Store(base / f"{spec.name}.store" if base else None))

    def run(self) -> TimelineLog:
        for event in self.script.events:
            self.world.clock.at(event.at, partial(apply_fault, event, self.world), rank=RANK_FAULT)
        try:
            self.world.start_devices()
            for engine in self.world.engines.values():
                engine.start()
            self.world.clock.run_until(self.script.duration)
        finally:
            for engine in self.world.engines.values():
                engine.store.close()
        return self.world.log
