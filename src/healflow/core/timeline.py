"""Append-only run record: every emission, delivery, drop, fault and role change.

The timeline is the single observable artifact of a run. Reports, marble
diagrams and the golden-file tests all read it, so entry order must be fully
deterministic: entries are appended in execution order and times never go
backwards.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional

KINDS = ("emit", "deliver", "drop", "fault", "role-change", "timer")

CSV_HEADER = ["time_ms", "instance", "event", "node", "port", "topic", "value"]


@dataclass(frozen=True, slots=True)
class TimelineEntry:
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
            port: Optional[int] = None, topic: str = "", value: Any = None) -> TimelineEntry:
        if kind not in KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if self.entries and time < self.entries[-1].time:
            raise ValueError("timeline times must be non-decreasing")
        entry = TimelineEntry(time, instance, kind, node, port, topic, value)
        self.entries.append(entry)
        return entry

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def emits(self, node: Optional[str] = None) -> list[TimelineEntry]:
        return [e for e in self.entries
                if e.kind == "emit" and (node is None or e.node == node)]

    def to_csv(self) -> str:
        return entries_to_csv(self.entries)


def entries_to_csv(entries: Iterable[TimelineEntry]) -> str:
    """Serialize entries with the stable schema; values are compact JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for e in entries:
        writer.writerow([
            e.time,
            e.instance,
            e.kind,
            e.node,
            "" if e.port is None else e.port,
            e.topic,
            json.dumps(e.value, separators=(",", ":"), sort_keys=True),
        ])
    return buf.getvalue()


def entries_from_csv(text: str) -> list[TimelineEntry]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected timeline header: {header}")
    out = []
    for row in reader:
        time_ms, instance, kind, node, port, topic, value = row
        out.append(TimelineEntry(
            time=int(time_ms),
            instance=instance,
            kind=kind,
            node=node,
            port=None if port == "" else int(port),
            topic=topic,
            value=json.loads(value),
        ))
    return out
