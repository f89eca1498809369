"""healflow: a self-healing dataflow runtime with a fault-injection simulator."""

from .core.clock import VirtualClock
from .core.engine import Engine
from .core.envelope import Envelope
from .core.graph import FlowGraph, FlowParseError, parse_flow, validate_graph
from .core.timeline import TimelineLog
from .sim import ScenarioScript, Simulation, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "Engine", "Envelope", "FlowGraph", "FlowParseError", "TimelineLog",
    "VirtualClock", "parse_flow", "validate_graph",
    "ScenarioScript", "Simulation", "parse_scenario",
    "__version__",
]
