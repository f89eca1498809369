from .scenario import (FaultEvent, InstanceSpec, ScenarioError, ScenarioScript, WorldSpec,
                       parse_scenario)
from .runner import Simulation, apply_fault
from .world import Service, VirtualDevice, World, WORLD_INSTANCE

__all__ = [
    "FaultEvent", "InstanceSpec", "ScenarioError", "ScenarioScript",
    "WorldSpec", "parse_scenario",
    "Simulation", "apply_fault",
    "Service", "VirtualDevice", "World", "WORLD_INSTANCE",
]
