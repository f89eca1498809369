"""Traffic-shaping and control operators: balancing, debounce, voting, audits."""

from __future__ import annotations

import random

from ..core.envelope import Envelope, encode_json, is_number, topic_matches
from .base import AGGREGATES, Node, Param, register


@register
class Balancing(Node):
    """Route each message to exactly one of n egresses.

    roundRobin cycles 0..n-1; weightedRoundRobin repeats each egress
    weights[i] times per cycle; random draws from a seeded generator so runs
    stay reproducible.
    """

    KIND = "balancing"
    CONFIG = {
        "outputs": Param("int", minimum=2, maximum=1000),
        "strategy": Param("choice", default="roundRobin",
                          choices=("roundRobin", "weightedRoundRobin", "random")),
        "weights": Param("list", default=None),
        "seed": Param("int", default=None),
    }

    @classmethod
    def egress_labels(cls, config):
        """One label per output; two for an `outputs` validate_config rejects,
        which may be too large to build a label for each."""
        n = config.get("outputs")
        if not isinstance(n, int) or not 2 <= n <= cls.CONFIG["outputs"].maximum:
            return ("out0", "out1")
        return tuple(f"out{i}" for i in range(n))

    @classmethod
    def check_config(cls, config):
        if config.get("strategy") == "weightedRoundRobin":
            weights = config.get("weights")
            if not weights:
                return ["weightedRoundRobin requires weights"]
            if len(weights) != config["outputs"]:
                return ["weights length must equal outputs"]
            if any(type(w) is not int or w <= 0 for w in weights):  # bool is no weight
                return ["weights must be positive integers"]
        return []

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        # The port whose turn it is, and the messages it took in it: 1, or its weight.
        self._port = self._taken = 0
        weighted = self.cfg["strategy"] == "weightedRoundRobin"
        self._weights = self.cfg["weights"] if weighted else None
        self._rng = None
        if self.cfg["strategy"] == "random":
            seed = self.cfg["seed"]
            self._rng = engine.node_rng(spec.id) if seed is None else random.Random(seed)

    def on_input(self, env: Envelope, ingress: int) -> None:
        if self._rng is not None:
            port = self._rng.randrange(self.cfg["outputs"])
        else:
            port, self._taken = self._port, self._taken + 1
            if self._taken == (self._weights[port] if self._weights else 1):
                self._port, self._taken = (port + 1) % self.cfg["outputs"], 0
        self.emit(port, env.payload, env.topic)


@register
class Debounce(Node):
    """Rate-limit a stream to at most one emission per window.

    The first message of an idle window passes immediately and opens the
    window; later messages are aggregated per strategy and emitted when the
    window closes, which reopens it to keep the cadence. drop-extra simply
    discards the extras.
    """

    KIND = "debounce"
    EGRESS_LABELS = ("value", "error")
    CONFIG = {
        "window": Param("int", minimum=0, exclusive_min=True),
        "strategy": Param("choice", default="last",
                          choices=("last", "first", "avg", "drop-extra")),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._open = False
        self._pending: list = []
        self._topic = ""

    def on_input(self, env: Envelope, ingress: int) -> None:
        strategy = self.cfg["strategy"]
        if strategy == "avg" and not is_number(env.payload):
            self.emit(1, {"kind": "malformed", "value": env.payload}, env.topic)
            return
        self._topic = env.topic
        if not self._open:
            self._open = True
            self._pending = []
            self.set_timer("window", self.cfg["window"])
            self.emit(0, env.payload, env.topic)
        else:
            self._pending.append(env.payload)

    def on_timer(self, tag: str) -> None:
        strategy = self.cfg["strategy"]
        pending, self._pending = self._pending, []
        if not pending or strategy == "drop-extra":
            self._open = False
            return
        self.set_timer("window", self.cfg["window"])
        self.emit(0, AGGREGATES[strategy](pending), self._topic)


@register
class ActionAudit(Node):
    """Confirm that a triggered action is acknowledged before a timeout.

    Ingress 0 takes triggers, ingress 1 acknowledgements. A matching ack in
    time is passed on as confirmed; the timeout fires failed on the trigger's
    topic. Acks that arrive late or with no pending trigger are ignored.
    """

    KIND = "action-audit"
    INGRESSES = 2
    EGRESS_LABELS = ("confirmed", "failed")
    CONFIG = {
        "timeout": Param("int", minimum=0, exclusive_min=True),
        "match": Param("str", default=None),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._pending = None  # the pending trigger's topic

    def _matches(self, topic: str) -> bool:
        pattern = self.cfg["match"]
        return pattern is None or topic_matches(pattern, topic)

    def on_input(self, env: Envelope, ingress: int) -> None:
        if ingress == 0:
            if self._pending is not None:
                self.log_warning("new trigger supersedes a pending one")
            self._pending = env.topic
            self.set_timer("timeout", self.cfg["timeout"])
        else:
            if self._pending is None:
                self.log_warning(f"ack on {env.topic!r} with no pending trigger")
                return
            if not self._matches(env.topic):
                return
            self._pending = None
            self.clear_timer("timeout")
            self.emit(0, env.payload, env.topic)

    def on_timer(self, tag: str) -> None:
        if self._pending is None:
            return
        topic = self._pending
        self._pending = None
        self.emit(1, {"kind": "timeout"}, topic)


@register
class ReplicationVoter(Node):
    """Pick one value out of several replicated inputs by consensus.

    A round opens at the first value and closes when `expected` values have
    arrived or the window elapses. majority needs a strict majority of the
    received values; unanimity needs them all equal. Anything else, a tie
    included, is noConsensus with the tally.
    """

    KIND = "replication-voter"
    EGRESS_LABELS = ("value", "noConsensus")
    CONFIG = {
        "expected": Param("int", minimum=2),
        "quorum": Param("choice", default="majority", choices=("majority", "unanimity")),
        "window": Param("int", minimum=0, exclusive_min=True),
    }

    def __init__(self, spec, engine):
        super().__init__(spec, engine)
        self._values: list = []
        self._topic = ""

    def on_input(self, env: Envelope, ingress: int) -> None:
        if not self._values:
            self._topic = env.topic
            self.set_timer("window", self.cfg["window"])
        self._values.append(env.payload)
        if len(self._values) >= self.cfg["expected"]:
            self.clear_timer("window")
            self._decide()

    def on_timer(self, tag: str) -> None:
        self._decide()

    def _decide(self) -> None:
        values, self._values = self._values, []
        winner, tally = vote(values, self.cfg["quorum"])
        if winner is not _NO_CONSENSUS:
            self.emit(0, winner, self._topic)
        else:
            self.emit(1, {"tally": tally}, self._topic)


_NO_CONSENSUS = object()


def vote(values: list, quorum: str = "majority"):
    """Consensus over comparable payloads; equality is deep/structural.

    Returns (winner, tally). winner is the module-level _NO_CONSENSUS
    sentinel when the quorum is not reached (None is a legal payload).
    """
    tally: dict[str, int] = {}
    originals: dict[str, object] = {}
    for v in values:
        key = encode_json(v)
        tally[key] = tally.get(key, 0) + 1
        originals.setdefault(key, v)
    if not values:
        return _NO_CONSENSUS, tally
    best_key = max(tally, key=lambda k: tally[k])
    if quorum == "unanimity":
        if len(tally) == 1:
            return originals[best_key], tally
        return _NO_CONSENSUS, tally
    if tally[best_key] * 2 > len(values):
        return originals[best_key], tally
    return _NO_CONSENSUS, tally


@register
class FlowControl(Node):
    """Apply {action, flow} commands to the engine's flow-groups.

    Enabling an already-enabled group (or disabling a disabled one) is an
    idempotent ack; unknown groups go to the error egress.
    """

    KIND = "flow-control"
    EGRESS_LABELS = ("ack", "error")
    CONFIG = {}

    def on_input(self, env: Envelope, ingress: int) -> None:
        cmd = env.payload
        if (not isinstance(cmd, dict) or cmd.get("action") not in ("enable", "disable")
                or not isinstance(cmd.get("flow"), str)):
            self.emit(1, {"kind": "malformed", "value": cmd}, env.topic)
            return
        if cmd["flow"] not in self.engine.flow_enabled:
            self.emit(1, {"kind": "unknown-flow", "flow": cmd["flow"]}, env.topic)
            return
        self.engine.flow_enabled[cmd["flow"]] = cmd["action"] == "enable"
        self.emit(0, {"action": cmd["action"], "flow": cmd["flow"]}, env.topic)
