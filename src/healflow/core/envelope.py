"""Message envelope passed between node ports."""

from __future__ import annotations

import json
from typing import Any, NamedTuple

# Payloads are plain JSON values: scalar number, string, bool, or a
# key-value record (lists allowed for tallies and similar aggregates).
Payload = Any

# The circular-reference markers of _encode: empty between encodes.
_markers: dict = {}
# One C encoder for every encode_json call. JSONEncoder.encode builds a new one
# per call. Its arguments: markers, default, string encoder, indent, key and
# item separators, sort_keys, skipkeys, allow_nan.
_encode = json.encoder.c_make_encoder(
    _markers, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True)


def encode_json(value: Payload) -> str:
    """Canonical compact JSON text of a value: sorted keys, no spaces, ASCII only.

    The one encoder behind timeline values, store records and vote keys. Its
    text is json.dumps(value, separators=(",", ":"), sort_keys=True), NaN and
    infinities included. It runs through the C encoder of CPython's _json
    module, with no fallback for interpreters without one: the supported
    interpreters are CPython 3.10 to 3.13.
    """
    try:
        return "".join(_encode(value, 0))
    except BaseException:
        # A failed encode leaves the markers of the containers it was inside;
        # a stale one would fail a later encode as a circular reference.
        _markers.clear()
        raise


def copy_json(value: Payload) -> Payload:
    """Copy a JSON value: every dict and list is rebuilt, scalars are shared.

    Envelope.fork, the single place payloads are copied, is its only caller.

    Payloads hold only JSON values (dicts with string keys, lists, strings,
    numbers, bool and None), so for them this is a deep copy: key order is
    kept, no container is shared with the original, and a dict or list
    subclass is rebuilt as a plain dict or list. Scalars are immutable, so
    sharing them is safe. Tuples, sets and other objects are not JSON and
    are shared as they are, not copied.

    The top container is copied in one step with dict() or list(); when no
    child of that copy is a dict or a list, the copy is the result. Only a
    nested payload is walked, with its own stack, so a payload nested past
    the recursion limit copies too.
    """
    if isinstance(value, dict):
        top = dict(value)
        children = top.values()
    elif isinstance(value, list):
        top = children = list(value)
    else:
        return value
    for child in children:
        if isinstance(child, (dict, list)):
            break
    else:
        return top
    stack = [top]
    while stack:
        node = stack.pop()
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(child, (dict, list)):
                node[key] = child = dict(child) if isinstance(child, dict) else list(child)
                stack.append(child)
    return top


class Envelope(NamedTuple):
    """One message as a node receives it: its topic and payload.

    When and from where it was sent is in the timeline, not here. An
    envelope is a named tuple, so it cannot be changed: assigning a field
    raises AttributeError. The engine and fork build one with the C tuple
    constructor, tuple.__new__, in place of the class's generated Python
    __new__. The engine forks one for every delivery, so state can never
    leak between branches, subscribers or the timeline.
    """

    topic: str
    payload: Payload

    def fork(self) -> "Envelope":
        """Copy for one delivery; the single place payloads are copied.

        A dict or list payload is copied with copy_json, which relies on the
        payload being a JSON value; a scalar payload is immutable, so the
        envelope itself is returned.
        """
        payload = self.payload
        if isinstance(payload, (dict, list)):
            return tuple.__new__(Envelope, (self.topic, copy_json(payload)))
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
