"""Co-simulator: one World runs every instance and device; fault kinds live in scenario.FAULTS."""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Optional

from ..core.engine import Engine
from ..core.graph import FlowGraph
from ..core.timeline import WORLD_INSTANCE, TimelineLog
from ..persistence import Store
from .scenario import FAULTS, FaultEvent, InstanceSpec, ScenarioError, ScenarioScript
from .world import RANK_FAULT, World


def apply_fault(fault: FaultEvent, world: World) -> None:
    """Log one fault entry, then apply the effect of the fault's FAULTS row to the world."""
    world.log.add(world.clock.now, WORLD_INSTANCE, "fault", fault.target,
                  value={"kind": fault.kind, **({"params": fault.params}
                                                if fault.params else {})})
    _, read, effect = FAULTS[fault.kind]
    effect(world, fault.target, read(fault.params))


class Simulation:
    """One scenario run: an engine per flow in `world`, and each scripted fault via apply_fault.

    It trusts its flows and script; it checks only that there is one flow per
    instance, and that undeclared instances fit the automatic 10.0.0.x addresses.
    """

    def __init__(self, flows: list[FlowGraph], script: ScenarioScript, *,
                 seed: Optional[int] = None, store_dir: Optional[str] = None):
        self.script = script
        instances = script.world.instances or [
            InstanceSpec(f"instance-{i}", f"10.0.0.{i + 1}") for i in range(len(flows))]
        if not script.world.instances and len(flows) > 255:
            raise ScenarioError(f"{len(flows)} flow documents and no declared instances: "
                                "automatic addresses end at 10.0.0.255")
        if len(instances) != len(flows):
            raise ScenarioError(
                f"{len(flows)} flow document(s) for {len(instances)} declared instance(s)")

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
