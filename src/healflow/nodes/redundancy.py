"""Redundancy operator: turn cluster role changes into flow-control commands."""

from __future__ import annotations

from ..cluster import ROLE_MASTER
from .base import Node, Param, register


@register
class Redundancy(Node):
    """Bridge between the cluster agent and the flow layer.

    The engine's first redundancy node configures its cluster agent: its
    electionTimeout sets the agent's timeouts. On every role transition the
    node emits one enable (master) or disable (standby) command per flow in
    its controlledFlows (egress 0, wire it into a flow-control node), then
    one role envelope (egress 1). Transitions are the only trigger, so a
    stable standby never emits anything.
    """

    KIND = "redundancy"
    INGRESSES = 0
    EGRESS_LABELS = ("commands", "role")
    CONFIG = {
        "electionTimeout": Param("int", default=15_000, minimum=0, exclusive_min=True),
        "controlledFlows": Param("list", default=[]),
    }

    @classmethod
    def check_config(cls, config):
        flows = config.get("controlledFlows")
        if flows is not None and not all(isinstance(f, str) for f in flows):
            return [f"config 'controlledFlows' must hold strings, got {flows!r}"]
        return []

    def on_start(self) -> None:
        self.engine.cluster.add_listener(self._on_transition)

    def _on_transition(self, role: str, epoch: int) -> None:
        action = "enable" if role == ROLE_MASTER else "disable"
        for flow in self.cfg["controlledFlows"]:
            self.emit(0, {"action": action, "flow": flow})
        self.emit(1, {"role": role})
