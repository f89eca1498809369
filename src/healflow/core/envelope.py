"""Message envelope passed between node ports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

# Payloads are plain JSON values: scalar number, string, bool, or a
# key-value record (lists allowed for tallies and similar aggregates).
Payload = Any


def copy_json(value: Payload) -> Payload:
    """Copy a JSON value: every dict and list is rebuilt, scalars are shared.

    Envelope.fork, the single place payloads are copied, is its only caller.

    Payloads hold only JSON values (dicts with string keys, lists, strings,
    numbers, bool and None), so for them this is a deep copy: key order is
    kept and no container is shared with the original. Scalars are
    immutable, so sharing them is safe. Tuples, sets and other objects are
    not JSON and are shared as they are, not copied.
    """
    if isinstance(value, dict):
        return {k: copy_json(v) if isinstance(v, (dict, list)) else v
                for k, v in value.items()}
    if isinstance(value, list):
        return [copy_json(v) if isinstance(v, (dict, list)) else v for v in value]
    return value


@dataclass(frozen=True, slots=True)
class Envelope:
    """One timestamped message travelling from a node egress to an ingress.

    Envelopes are immutable values; the engine forks one for every delivery,
    so state can never leak between branches, subscribers or the timeline.
    """

    time: int
    topic: str
    payload: Payload
    source: str
    port: int = 0
    corr: Optional[str] = None

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("envelope time must be non-negative")
        if self.port < 0:
            raise ValueError("egress index must be non-negative")

    def fork(self) -> "Envelope":
        """Copy for one delivery; the single place payloads are copied.

        A dict or list payload is copied with copy_json, which relies on the
        payload being a JSON value; a scalar payload is immutable, so the
        envelope itself is returned.
        """
        payload = self.payload
        if isinstance(payload, (dict, list)):
            return Envelope(self.time, self.topic, copy_json(payload), self.source,
                            self.port, self.corr)
        return self


def is_number(value) -> bool:
    """True for int/float payloads; bool is not a reading."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def topic_matches(pattern: str, topic: str) -> bool:
    """Exact topic match plus the single-level '+' wildcard."""
    p_segs = pattern.split("/")
    t_segs = topic.split("/")
    if len(p_segs) != len(t_segs):
        return False
    return all(p == "+" or p == t for p, t in zip(p_segs, t_segs))
