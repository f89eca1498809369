"""Operator palette: registration happens on import of the submodules."""

from .base import NODE_KINDS, Node, Param, register
from . import probes, recovery, routing, discovery, redundancy, util  # noqa: F401

from .probes import Heartbeat, ReadingsWatcher, ResourceMonitor, ThresholdCheck, TimingCheck
from .recovery import Checkpoint, Compensate, KalmanFilter
from .routing import ActionAudit, Balancing, Debounce, FlowControl, ReplicationVoter, vote
from .discovery import DeviceRegistry, HttpAware, NetworkAware
from .redundancy import Redundancy
from .util import Debug, Extract, HttpPost, MqttIn, MqttOut, Rbe, rbe_process

__all__ = [
    "NODE_KINDS", "Node", "Param", "register",
    "ThresholdCheck", "ReadingsWatcher", "TimingCheck", "ResourceMonitor", "Heartbeat",
    "Compensate", "Checkpoint", "KalmanFilter",
    "Balancing", "Debounce", "ActionAudit", "ReplicationVoter", "FlowControl",
    "vote",
    "HttpAware", "NetworkAware", "DeviceRegistry",
    "Redundancy",
    "Debug", "Rbe", "Extract", "MqttIn", "MqttOut", "HttpPost", "rbe_process",
]
