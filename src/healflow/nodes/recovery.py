"""Recovery operators: missing-value compensation, checkpointing, noise filtering."""

from __future__ import annotations

from ..core.envelope import Envelope, is_number
from ..persistence import StoreError
from .base import AGGREGATES, Node, Param, register


@register
class Compensate(Node):
    """Keep a sensor stream alive at its expected cadence when readings stop.

    Real inputs enter a bounded history (oldest evicted at capacity) and pass
    through unchanged with confidence 1. When the interval elapses without
    input, a substitute is computed from the history by the configured
    strategy and re-enters the input path, so the substitute itself lands in
    the history and the timer restarts. Confidence multiplies by
    confidenceDecay per consecutive substitution and snaps back to 1 on the
    next real reading. Under avg, max or min a reading that is not a number
    goes to the error port as malformed and is not absorbed.

    Emitted payloads are records {value, substituted, confidence}.
    """

    KIND = "compensate"
    EGRESS_LABELS = ("value", "error")
    CONFIG = {
        "historyMaxSize": Param("int", default=10, minimum=1, exclusive_min=True),
        "interval": Param("int", minimum=0, exclusive_min=True),
        "strategy": Param("choice", default="last", choices=("last", "avg", "max", "min")),
        "confidenceDecay": Param("number", default=0.9, minimum=0, maximum=1,
                                 exclusive_min=True),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self.history: list = []
        self.confidence = 1.0
        self._topic = ""

    def _absorb(self, value) -> None:
        if len(self.history) >= self.cfg["historyMaxSize"]:
            del self.history[0]
        self.history.append(value)

    def on_start(self) -> None:
        # The cadence watchdog runs from node init, before any input arrives.
        self.set_timer("interval", self.cfg["interval"])

    def on_input(self, env: Envelope, ingress: int) -> None:
        if self.cfg["strategy"] != "last" and not is_number(env.payload):
            self.emit(1, {"kind": "malformed", "value": env.payload}, env.topic)
            return
        self._topic = env.topic
        self._absorb(env.payload)
        self.set_timer("interval", self.cfg["interval"])
        self.confidence = 1.0
        self.emit(0, {"value": env.payload, "substituted": False, "confidence": 1.0}, env.topic)

    def on_timer(self, tag: str) -> None:
        # Re-arm first, so an aggregate that raises cannot stop the watchdog.
        self.set_timer("interval", self.cfg["interval"])
        if not self.history:
            # Fabricating a value from nothing would defeat the pattern.
            self.emit(1, {"kind": "empty-history"})
            return
        substitute = AGGREGATES[self.cfg["strategy"]](self.history)
        self.confidence *= self.cfg["confidenceDecay"]
        self._absorb(substitute)
        self.emit(0, {"value": substitute, "substituted": True,
                      "confidence": self.confidence}, self._topic)


@register
class Checkpoint(Node):
    """Persist the last message and replay it once after a restart.

    Replay happens only while the stored message is younger than timeToLive,
    and the replayed slot is cleared so a second restart replays nothing.
    A store write failure never blocks forwarding.
    """

    KIND = "checkpoint"
    EGRESS_LABELS = ("out",)
    CONFIG = {
        "timeToLive": Param("int", minimum=0, exclusive_min=True),
    }

    def on_start(self) -> None:
        record = self.engine.store.load_checkpoint(self.id)
        if record is None:
            return
        alive_time = self.now - record.timestamp
        if alive_time <= self.cfg["timeToLive"]:
            try:
                self.engine.store.clear_checkpoint(self.id)
            except StoreError as exc:
                self.log_fault({"kind": "store-error", "error": str(exc)})
            self.emit(0, record.payload, record.topic)

    def on_input(self, env: Envelope, ingress: int) -> None:
        try:
            self.engine.store.store_checkpoint(self.id, env.topic, env.payload, self.now)
        except StoreError as exc:
            self.log_fault({"kind": "store-error", "error": str(exc)})
        self.emit(0, env.payload, env.topic)


@register
class KalmanFilter(Node):
    """Scalar constant-state Kalman filter for smoothing noisy readings.

    Per measurement z: P += q; K = P/(P+r); x += K(z-x); P = (1-K)P.
    The first measurement initializes x = z with P = r.
    """

    KIND = "kalman-filter"
    EGRESS_LABELS = ("estimate", "error")
    CONFIG = {
        "q": Param("number", default=0.0, minimum=0),
        "r": Param("number", minimum=0, exclusive_min=True),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self.estimate = None
        self.variance = None

    def on_input(self, env: Envelope, ingress: int) -> None:
        z = env.payload
        if not is_number(z):
            self.emit(1, {"kind": "malformed", "value": z}, env.topic)
            return
        if self.estimate is None:
            self.estimate = float(z)
            self.variance = float(self.cfg["r"])
        else:
            self.variance += self.cfg["q"]
            gain = self.variance / (self.variance + self.cfg["r"])
            self.estimate += gain * (z - self.estimate)
            self.variance *= (1 - gain)
        self.emit(0, self.estimate, env.topic)
