"""Append-only run record: every emission, delivery, drop, fault and role change.

The timeline is the single observable artifact of a run. Reports, marble
diagrams and the golden-file tests all read it, so entry order must be fully
deterministic: entries are appended in execution order and times never go
backwards.

Entries are named tuples, built with the C tuple constructor tuple.__new__
in place of the class's generated Python __new__. Their values are
read-only: an emit and its delivers log one payload object, and a timeline
read back from CSV shares one decoded value between consecutive entries
whose value texts are equal.
Entries read back also share one string per distinct name and one int per
run of equal time texts. The CSV text is read in slices: one StringIO over
all of it would hold a copy at four bytes per character during the parse.
Rows are written as f-strings from field texts made once per name and per
value object, and joined once. Every field follows one rule, _field, so the
bytes do not depend on the Python that writes them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from typing import Any, NamedTuple, Optional

from .envelope import encode_json

KINDS = ("emit", "deliver", "drop", "fault", "role-change", "timer")

# The pseudo-instance that logs device readings and scripted faults.
WORLD_INSTANCE = "world"
# Emits on topics under this prefix are sink deliveries (http-post successes).
SINK_TOPIC_PREFIX = "service/"

_SLICE = 1 << 16  # characters per StringIO that entries_from_csv feeds the csv reader
# The C scanner behind json.loads, with its default decoder's options. It
# decodes one JSON value at an index and returns the value and its end.
_scan = json.scanner.make_scanner(json.JSONDecoder())

CSV_HEADER = ["time_ms", "instance", "event", "node", "port", "topic", "value"]


def csv_safe(name: str) -> bool:
    """Whether a name survives to_csv and entries_from_csv: it holds no NUL."""
    return "\0" not in name


class TimelineEntry(NamedTuple):
    """One logged event; ``value`` may be shared with other entries, so never mutate it."""

    time: int
    instance: str
    kind: str
    node: str
    port: Optional[int]
    topic: str
    value: Any


class TimelineLog:
    """Ordered, append-only list of timeline entries."""

    def __init__(self):
        self.entries: list[TimelineEntry] = []

    def add(self, time: int, instance: str, kind: str, node: str,
            port: Optional[int] = None, topic: str = "", value: Any = None) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        entries = self.entries
        if entries and time < entries[-1][0]:
            raise ValueError("timeline times must be non-decreasing")
        entries.append(tuple.__new__(TimelineEntry,
                                     (time, instance, kind, node, port, topic, value)))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def emits(self, node: Optional[str] = None) -> list[TimelineEntry]:
        return [e for e in self.entries
                if e.kind == "emit" and (node is None or e.node == node)]

    def to_csv(self) -> str:
        """Serialize entries with the stable schema; values are compact JSON.

        An emit and its delivers log one payload object, so a value that is
        the previous entry's object reuses that entry's text. A None port is
        an empty field.
        """
        names = _FieldTexts()
        rows = [",".join(CSV_HEADER) + "\n"]
        append = rows.append
        prev, text = object(), ""  # a fresh object is no entry's value
        for time, instance, kind, node, port, topic, value in self.entries:
            if value is not prev:
                prev, text = value, _field(encode_json(value))
            append(f"{time!s},{names[instance]},{kind},{names[node]},"
                   f"{'' if port is None else str(port)},{names[topic]},{text}\n")
        return "".join(rows)


class _FieldTexts(dict):
    """The CSV field of each name, made by _field once; a known name is a dict lookup."""

    def __missing__(self, name: str) -> str:
        self[name] = text = _field(name)
        return text


def _field(text: str) -> str:
    """RFC 4180's field: quoted if it holds '"', ',', "\\n" or "\\r", with each '"' doubled."""
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return f'"{text}"' if "," in text or "\n" in text or "\r" in text else text


def _slices(text: str):
    """StringIOs over text cut after a "\\n": chained, their lines are one StringIO's."""
    start, end = 0, len(text)
    while start < end:  # not str.splitlines, which also ends a line at "\x0b", "\x85", ...
        cut = text.find("\n", start + _SLICE) + 1 or end
        yield io.StringIO(text[start:cut])
        start = cut


def entries_from_csv(text: str) -> list[TimelineEntry]:
    """Parse a timeline CSV, applying the rules that TimelineLog.add applies.

    Consecutive rows with equal value texts share one decoded value. Any
    malformed input raises ValueError, a malformed value the first time its
    text is seen. A NUL is malformed anywhere, as no name holds one.
    """
    if "\0" in text:
        raise ValueError("the text holds a NUL")
    # No field is longer than the text; restore the process-wide limit after.
    old_limit = csv.field_size_limit(len(text) + 1)
    try:
        reader = csv.reader(itertools.chain.from_iterable(_slices(text)))
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected timeline header: {header}")
        out = []
        kinds, name = dict(zip(KINDS, KINDS)), {}.setdefault
        raw_time = raw = value = None
        for time_text, instance, kind, node, port, topic, value_text in reader:
            if kind not in kinds:
                raise ValueError(f"unknown event kind {kind!r}")
            if time_text != raw_time:
                raw_time, time = time_text, int(time_text)
                if out and time < out[-1][0]:
                    raise ValueError("timeline times must be non-decreasing")
            if value_text != raw:
                raw = value_text
                try:
                    value, end = _scan(value_text, 0)
                except (StopIteration, ValueError):
                    end = -1
                if end != len(value_text):  # whitespace, a BOM, extra data or an error
                    value = json.loads(value_text)
            out.append(tuple.__new__(TimelineEntry, (
                time, name(instance, instance), kinds[kind], name(node, node),
                None if port == "" else int(port), name(topic, topic), value)))
    except (csv.Error, RecursionError) as exc:
        raise ValueError(str(exc)) from exc
    finally:
        csv.field_size_limit(old_limit)
    return out
