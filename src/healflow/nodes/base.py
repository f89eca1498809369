"""Operator base class, config schema validation and the kind registry."""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, Optional, TYPE_CHECKING

from ..core.envelope import Envelope, is_number
from ..core.timeline import csv_safe

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import Engine
    from ..core.graph import NodeSpec

logger = logging.getLogger(__name__)

_MISSING = object()


def mean(values: list) -> float:
    """Mean summed strictly left to right, so every Python gives the same bytes.

    Python 3.12 made float sum() compensated, which changes the last bits.
    """
    return reduce(operator.add, values, 0) / len(values)


# The value each aggregating strategy takes from a non-empty list of values.
AGGREGATES = {
    "last": lambda values: values[-1],
    "first": lambda values: values[0],
    "avg": mean,
    "max": max,
    "min": min,
}


@dataclass
class Param:
    """One config field: type, default, and range constraints.

    kind is one of: number, int, str, list, choice, any. A field without a
    default is required; a field with one also accepts null, and null means
    the default (parse_flow fills it in). Durations are plain integer
    milliseconds (kind="int").
    """

    kind: str = "any"
    default: Any = _MISSING
    minimum: Any = None
    maximum: Any = None
    exclusive_min: bool = False
    choices: Optional[tuple] = None

    @property
    def has_default(self) -> bool:
        return self.default is not _MISSING


def _check_value(name: str, value: Any, p: Param) -> list[str]:
    problems = []
    if p.kind == "number" and not is_number(value):
        return [f"config {name!r} must be a number"]
    if p.kind == "number" and isinstance(value, float) and not math.isfinite(value):
        return [f"config {name!r} must be finite"]
    if p.kind == "int" and not (isinstance(value, int) and not isinstance(value, bool)):
        return [f"config {name!r} must be an integer"]
    if p.kind == "str" and not isinstance(value, str):
        return [f"config {name!r} must be a string"]
    if p.kind == "str" and not csv_safe(value):
        return [f"config {name!r} must not hold a NUL"]
    if p.kind == "list" and not isinstance(value, list):
        return [f"config {name!r} must be a list"]
    if p.kind == "choice" and value not in (p.choices or ()):
        return [f"config {name!r} must be one of {list(p.choices or ())}"]
    if p.minimum is not None and is_number(value):
        if p.exclusive_min and value <= p.minimum:
            problems.append(f"config {name!r} must be > {p.minimum}")
        elif not p.exclusive_min and value < p.minimum:
            problems.append(f"config {name!r} must be >= {p.minimum}")
    if p.maximum is not None and is_number(value) and value > p.maximum:
        problems.append(f"config {name!r} must be <= {p.maximum}")
    return problems


class Node:
    """Base class for all operators hosted by the engine.

    Subclasses declare their wiring surface (ingress count, egress labels)
    and config schema as class attributes; the engine owns all invocation,
    so node code never needs its own synchronization.

    At runtime a node calls emit, set_timer, clear_timer, log_fault and
    log_warning, and reads now. It may also use these attributes of
    self.engine: world (the shared environment every engine lives in),
    store, cluster (None without a redundancy node), instance and flow_enabled
    (the on/off flag of each flow-group).
    """

    KIND = ""
    INGRESSES = 1
    EGRESS_LABELS: tuple = ("out",)
    CONFIG: dict = {}

    def __init__(self, spec: "NodeSpec", engine: "Engine"):
        self.spec = spec
        self.engine = engine
        self.cfg: dict = spec.config

    @property
    def id(self) -> str:
        return self.spec.id

    @property
    def now(self) -> int:
        return self.engine.clock.now

    # --- runtime calls --------------------------------------------------
    def emit(self, port: int, payload, topic: str = "") -> None:
        self.engine.emit_from(self.spec, port, payload, topic)

    def set_timer(self, tag: str, delay_ms: int) -> None:
        """(Re)arm the node timer named tag to fire delay_ms from now, once;
        a pending one is moved to the new time."""
        self.engine.set_node_timer(self.spec, tag, delay_ms)

    def clear_timer(self, tag: str) -> None:
        self.engine.clear_node_timer(self.spec, tag)

    def log_fault(self, value) -> None:
        self.engine.log.add(self.now, self.engine.instance, "fault", self.id, value=value)

    def log_warning(self, message: str) -> None:
        logger.warning("[%s/%s] %s", self.engine.instance, self.id, message)

    # --- wiring surface -------------------------------------------------
    @classmethod
    def egress_labels(cls, config: dict) -> tuple:
        return cls.EGRESS_LABELS

    # --- config validation ----------------------------------------------
    @classmethod
    def validate_config(cls, config: dict) -> list[str]:
        problems = []
        for key in config:
            if key not in cls.CONFIG:
                problems.append(f"unknown config key {key!r}")
        for name, p in cls.CONFIG.items():
            if name not in config:
                if not p.has_default:
                    problems.append(f"missing required config {name!r}")
                continue
            value = config[name]
            if value is None and p.has_default:
                continue
            problems.extend(_check_value(name, value, p))
        if not problems:
            problems.extend(cls.check_config(config))
        return problems

    @classmethod
    def check_config(cls, config: dict) -> list[str]:
        """Cross-field constraints; override where fields interact."""
        return []

    # --- lifecycle hooks --------------------------------------------------
    def on_start(self) -> None:
        """Called once when the hosting engine starts (or restarts)."""

    def on_input(self, env: Envelope, ingress: int) -> None:
        """Handle one delivery on a wired ingress."""

    def on_timer(self, tag: str) -> None:
        """Handle a timer previously armed with self.set_timer(tag, ...)."""

    def on_external(self, topic: str, payload) -> None:
        """Handle a broker delivery (only subscription nodes accept these)."""
        self.log_warning(f"node {self.id!r} ignores broker delivery on {topic!r}")


NODE_KINDS: dict[str, type[Node]] = {}


def register(cls: type[Node]) -> type[Node]:
    if not cls.KIND:
        raise ValueError("node class must define KIND")
    if cls.KIND in NODE_KINDS:
        raise ValueError(f"duplicate node kind {cls.KIND!r}")
    NODE_KINDS[cls.KIND] = cls
    return cls
