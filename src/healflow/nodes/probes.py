"""Error-detection operators: value, cadence and liveness probes.

Each probe fires exactly one egress per input, so downstream flows can rely
on the partition: a message is either healthy or it is a diagnosis, never both.
"""

from __future__ import annotations

from ..core.envelope import Envelope, is_number
from .base import Node, Param, register


@register
class ThresholdCheck(Node):
    """Pass readings inside [low, high] (inclusive), route the rest to error."""

    KIND = "threshold-check"
    EGRESS_LABELS = ("reading", "error")
    CONFIG = {
        "low": Param("number"),
        "high": Param("number"),
    }

    @classmethod
    def check_config(cls, config):
        if config["low"] > config["high"]:
            return [f"low ≤ high violated (low={config['low']}, high={config['high']})"]
        return []

    def on_input(self, env: Envelope, ingress: int) -> None:
        value = env.payload
        if not is_number(value):
            self.emit(1, {"kind": "malformed", "value": value}, env.topic)
            return
        if self.cfg["low"] <= value <= self.cfg["high"]:
            self.emit(0, value, env.topic)
        else:
            self.emit(1, {"kind": "out-of-range", "value": value,
                          "low": self.cfg["low"], "high": self.cfg["high"]}, env.topic)


@register
class ReadingsWatcher(Node):
    """Flag implausible reading sequences: stuck-at, jumps, too-small changes.

    The first reading always passes (there is no delta yet). Every reading,
    anomalous or not, becomes the new reference, since the watcher observes
    the stream rather than filtering it.
    """

    KIND = "readings-watcher"
    EGRESS_LABELS = ("reading", "anomaly")
    CONFIG = {
        "minDelta": Param("number", default=0, minimum=0),
        "maxDelta": Param("number", default=None, minimum=0, exclusive_min=True),
        "stuckCount": Param("int", default=2, minimum=2),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._prev = None
        self._run = 0

    def on_input(self, env: Envelope, ingress: int) -> None:
        value = env.payload
        if not is_number(value):
            self.emit(1, {"kind": "malformed", "value": value}, env.topic)
            return
        if self._prev is None:
            self._prev, self._run = value, 1
            self.emit(0, value, env.topic)
            return

        delta = value - self._prev
        self._run = self._run + 1 if value == self._prev else 1
        anomaly = None
        max_delta = self.cfg["maxDelta"]
        if self._run >= self.cfg["stuckCount"]:
            anomaly = "stuck-at"
        elif max_delta is not None and abs(delta) > max_delta:
            anomaly = "max-change"
        elif self.cfg["minDelta"] > 0 and abs(delta) < self.cfg["minDelta"]:
            anomaly = "min-change"
        self._prev = value
        if anomaly is None:
            self.emit(0, value, env.topic)
        else:
            self.emit(1, {"kind": anomaly, "value": value, "delta": delta}, env.topic)


@register
class TimingCheck(Node):
    """Classify inter-arrival gaps against an expected cadence.

    tooFast iff gap < expected*(1-tolerance), tooSlow iff gap >
    expected*(1+tolerance), otherwise normal. The first message is normal.
    """

    KIND = "timing-check"
    EGRESS_LABELS = ("tooFast", "normal", "tooSlow")
    CONFIG = {
        "expected": Param("int", minimum=0, exclusive_min=True),
        "tolerance": Param("number", default=0, minimum=0),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._last_arrival = None

    def on_input(self, env: Envelope, ingress: int) -> None:
        now = self.now
        if self._last_arrival is None:
            port = 1
        else:
            gap = now - self._last_arrival
            expected = self.cfg["expected"]
            tolerance = self.cfg["tolerance"]
            if gap < expected * (1 - tolerance):
                port = 0
            elif gap > expected * (1 + tolerance):
                port = 2
            else:
                port = 1
        self._last_arrival = now
        self.emit(port, env.payload, env.topic)


@register
class ResourceMonitor(Node):
    """Alert when a telemetry metric reaches a near-minimum or near-maximum bound."""

    KIND = "resource-monitor"
    EGRESS_LABELS = ("ok", "alert", "error")
    CONFIG = {
        "metric": Param("str"),
        "nearMin": Param("number", default=None),
        "nearMax": Param("number", default=None),
    }

    @classmethod
    def check_config(cls, config):
        if config.get("nearMin") is None and config.get("nearMax") is None:
            return ["at least one of nearMin/nearMax must be configured"]
        return []

    def on_input(self, env: Envelope, ingress: int) -> None:
        metric = self.cfg["metric"]
        if not isinstance(env.payload, dict):
            self.emit(2, {"kind": "malformed", "value": env.payload}, env.topic)
            return
        if metric not in env.payload:
            self.emit(2, {"kind": "missing-metric", "metric": metric}, env.topic)
            return
        value = env.payload[metric]
        if not is_number(value):
            self.emit(2, {"kind": "malformed", "metric": metric, "value": value}, env.topic)
            return
        near_min, near_max = self.cfg["nearMin"], self.cfg["nearMax"]
        if near_min is not None and value <= near_min:
            self.emit(1, {"metric": metric, "value": value,
                          "bound": "nearMin", "limit": near_min}, env.topic)
        elif near_max is not None and value >= near_max:
            self.emit(1, {"metric": metric, "value": value,
                          "bound": "nearMax", "limit": near_max}, env.topic)
        else:
            self.emit(0, env.payload, env.topic)


@register
class Heartbeat(Node):
    """Report liveness of an upstream source from its message stream.

    Any input restarts the timer and acknowledges on the ok egress (active
    mode also pings). Silence raises an error at last-activity + timeout and
    keeps raising one every timeout until traffic resumes, because the
    timeout handler restarts the timer itself.
    """

    KIND = "heartbeat"
    EGRESS_LABELS = ("ping", "ok", "error")
    CONFIG = {
        "ping": Param("any", default="ping"),
        "ok": Param("any", default="ok"),
        "error": Param("any", default="heartbeat-error"),
        "mode": Param("choice", default="passive", choices=("passive", "active")),
        "timeout": Param("int", minimum=0, exclusive_min=True),
    }

    def on_start(self) -> None:
        self.set_timer("timeout", self.cfg["timeout"])

    def on_input(self, env: Envelope, ingress: int) -> None:
        self.set_timer("timeout", self.cfg["timeout"])
        if self.cfg["mode"] == "active":
            self.emit(0, self.cfg["ping"], env.topic)
        self.emit(1, self.cfg["ok"], env.topic)

    def on_timer(self, tag: str) -> None:
        self.set_timer("timeout", self.cfg["timeout"])
        self.emit(2, self.cfg["error"])
