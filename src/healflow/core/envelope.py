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


def decode_document(text: str, what: str, error: type[Exception]) -> Payload:
    """The JSON value of an outside document, `what` naming it in the
    `error` raised for text json.loads rejects."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} syntax error: {exc.msg} "
                    f"(line {exc.lineno}, column {exc.colno})") from exc
    except RecursionError:
        raise error(f"{what} document nests too deep") from None
    except ValueError:
        raise error(f"{what} document holds an integer with too many digits") from None


class Envelope(NamedTuple):
    """One message as a node receives it: its topic and payload.

    When and from where it was sent is in the timeline, not here. An
    envelope is a named tuple, so it cannot be changed: assigning a field
    raises AttributeError. The engine builds one with the C tuple
    constructor, tuple.__new__, in place of the class's generated Python
    __new__.

    Payloads are shared, not copied: one payload object reaches every
    subscriber and branch of a fan-out, and the timeline logs that same
    object. So no node mutates a payload it did not build, and none mutates
    one it built once it has emitted it. tests/conftest.py's freeze mode
    checks this on every in-process test: each delivery gets a payload that
    raises TypeError on any mutation, and each logged value must encode to
    the same text at the end of the test as when it was logged.
    """

    topic: str
    payload: Payload

    def fork(self) -> "Envelope":
        """The envelope one delivery hands its node: this one, payload shared.

        The engine calls it once per delivery, so it is the one place a
        delivery's payload could be wrapped or checked.
        """
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
