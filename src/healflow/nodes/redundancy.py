"""Redundancy operator: turn cluster role changes into flow-control commands."""

from __future__ import annotations

from .base import Node, Param, register


@register
class Redundancy(Node):
    """Bridge between the cluster agent and the flow layer.

    On every role transition it emits enable/disable commands for the
    controlled flow-groups (egress 0, wire it into a flow-control node) and
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

    def on_start(self) -> None:
        if self.engine.cluster is not None:
            self.engine.cluster.add_listener(self._on_transition)

    def _on_transition(self, role: str, epoch: int, commands: list) -> None:
        for action, flow in commands:
            self.emit(0, {"action": action, "flow": flow})
        self.emit(1, {"role": role})
