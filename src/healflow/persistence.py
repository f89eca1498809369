"""Durable single-slot checkpoint store and device registry.

Backing format is one append-compacted file per instance. Every line is one
compact JSON array, as encode_json writes it: a tag, a key, then the fields.

    ["CKPT", nodeId, timestamp, topic, payload]    a checkpoint slot
    ["CKPT", nodeId]                               a cleared slot
    ["REG", deviceId, kind, endpoint, lastSeen, status]

A CKPT line is one f-string: an id or topic is encoded once per name, the int
timestamp is formatted directly, and a payload that is the object stored last
reuses its text, as timeline CSV rows do. So a stored payload is read-only, as
a logged one is: the checkpoint node logs the payload it stores. A device is
a RegistryEntry NamedTuple, and its REG line is encode_json(("REG", *entry)).
JSON escapes any string, so every id, kind and endpoint reloads unchanged.
A timestamp or lastSeen is an int, never a bool. A cleared slot is its own
record, so a checkpointed null stays a message that replays. Files in the
older space-separated format (`CKPT <id> <timestamp> <json>`) do not load:
each of their lines is skipped like any other corrupt line.

Appends are replayed on load with last-line-wins semantics. A file-backed
store appends through one unbuffered handle, opened by the first append, with
one write per record, so each record reaches the OS before the append returns
(there is no fsync), and a failed write leaves nothing behind in a buffer.
close() releases the handle; the next append reopens it.

compact() rewrites the live state (one line per checkpoint slot and device)
to a temp file and renames it over the store, so a failed compaction leaves
the old file whole; it closes the handle first, because appends through it
would land in the replaced file. The store counts the lines of its file and
compacts itself after an append that takes the count past
max(MIN_COMPACT_LINES, LINES_PER_RECORD x live records), so the file stays
bounded by its live state, and a long file is compacted on its first append.

A line that does not parse, or whose shape is not one of the three above, is
skipped with a warning and counted in `skipped`. So is a torn last line, one
without its newline, as a crash mid-append leaves it, even when the fragment
would parse. The first append after loading a torn file compacts it, which
drops the fragment, so it can neither swallow the new record nor load later.
A short write leaves such a fragment too: the append raises StoreError, and
the next append compacts the file.

A store built with path=None is memory-only but keeps the identical
semantics, which is what simulated instance restarts rely on: the store
object outlives the engine.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple, Optional

from .core.envelope import encode_json

logger = logging.getLogger(__name__)

# The compaction bound: a file holds at most this many lines, or this many
# lines per live record if that is more.
MIN_COMPACT_LINES = 1024
LINES_PER_RECORD = 4

# The fields after the tag of each record shape, keyed by tag and line length;
# None admits any JSON value. type(v) is int rejects a bool.
_SHAPES = {
    ("CKPT", 5): (str, int, str, None),
    ("CKPT", 2): (str,),
    ("REG", 6): (str, str, str, int, str),
}


def _parse(line: str) -> list:
    """The fields of one store line; ValueError unless it has a known shape."""
    record = json.loads(line)
    shape = None
    if type(record) is list and record and type(record[0]) is str:
        shape = _SHAPES.get((record[0], len(record)))
    if shape is None or not all(t is None or type(v) is t for t, v in zip(shape, record[1:])):
        raise ValueError("not a store record")
    return record


class StoreError(Exception):
    """Raised when the backing file cannot be written or an op is invalid."""


class CheckpointRecord(NamedTuple):
    """One checkpoint slot; ``payload`` may be shared with the timeline, so never mutate it."""

    timestamp: int
    topic: str
    payload: Any


class _JsonTexts(dict):
    """The encode_json text of each name, made once; a known name is a dict lookup."""

    def __missing__(self, name: str) -> str:
        self[name] = text = encode_json(name)
        return text


class RegistryEntry(NamedTuple):
    """One device; its REG line is ["REG", *entry]."""

    device_id: str
    kind: str
    endpoint: str
    last_seen: int
    status: str  # "online" | "lost"


class Store:
    """Checkpoint slots plus the device registry, optionally file-backed."""

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self._ckpt: dict[str, CheckpointRecord] = {}
        self._reg: dict[str, RegistryEntry] = {}
        self._fh: Optional[BinaryIO] = None  # the append handle, opened by the first append
        self._lines = 0      # lines in the file, counted by _load and _append
        self._torn = False   # the file ends in a line without its newline
        self.skipped = 0     # lines _load could not parse, a torn last line included
        self._names = _JsonTexts()  # the texts of the ids and topics of CKPT lines
        # The last payload _ckpt_line encoded and its text; a fresh object is no payload.
        self._payload, self._payload_text = object(), ""
        if self.path is not None and self.path.exists():
            self._load()

    # --- checkpoint slots -------------------------------------------------
    def store_checkpoint(self, node_id: str, topic: str, payload: Any, timestamp: int) -> None:
        self._ckpt[node_id] = tuple.__new__(CheckpointRecord, (timestamp, topic, payload))
        if self.path is not None:
            self._append(self._ckpt_line(node_id, timestamp, topic, payload))

    def load_checkpoint(self, node_id: str) -> Optional[CheckpointRecord]:
        return self._ckpt.get(node_id)

    def clear_checkpoint(self, node_id: str) -> None:
        """Empty the slot, so that its message replays at most once."""
        if self._ckpt.pop(node_id, None) is not None and self.path is not None:
            self._append(f'["CKPT",{self._names[node_id]}]\n')

    # --- device registry ----------------------------------------------------
    def registry_upsert(self, device_id: str, kind: str, endpoint: str,
                        now: int) -> RegistryEntry:
        prev = self._reg.get(device_id)
        last_seen = max(now, prev.last_seen) if prev else now
        return self._put_entry(RegistryEntry(device_id, kind, endpoint, last_seen, "online"))

    def registry_mark_lost(self, device_id: str) -> RegistryEntry:
        prev = self._reg.get(device_id)
        if prev is None:
            raise StoreError(f"unknown device {device_id!r}")
        # lastSeen is retained: losing a device is not seeing it.
        return self._put_entry(prev._replace(status="lost"))

    def _put_entry(self, entry: RegistryEntry) -> RegistryEntry:
        self._reg[entry.device_id] = entry
        if self.path is not None:
            self._append(encode_json(("REG", *entry)) + "\n")
        return entry

    # --- file backing -------------------------------------------------------
    def compact(self) -> None:
        if self.path is None:
            return
        lines = [self._ckpt_line(node_id, *rec) for node_id, rec in sorted(self._ckpt.items())]
        lines += [encode_json(("REG", *entry)) + "\n" for entry in sorted(self._reg.values())]
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text("".join(lines), encoding="utf-8")
            self.close()
            os.replace(tmp, self.path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise StoreError(f"compact failed: {exc}") from exc
        self._lines = len(lines)
        self._torn = False

    def close(self) -> None:
        """Close the append handle, if open; the next append reopens it."""
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def _ckpt_line(self, node_id: str, timestamp: int, topic: str, payload: Any) -> str:
        if payload is not self._payload:
            self._payload, self._payload_text = payload, encode_json(payload)
        names = self._names
        return f'["CKPT",{names[node_id]},{timestamp},{names[topic]},{self._payload_text}]\n'

    def _append(self, line: str) -> None:
        """Append one record line; callers build it only for a file-backed store."""
        if self._torn:
            # Rewrite rather than end the fragment with a newline: a fragment that
            # parses, a line cut just before its newline, would load next time.
            # Callers update the live state first, so it holds this record.
            self.compact()
            return
        data = line.encode("utf-8")
        fh = self._fh
        try:
            if fh is None:
                fh = self._fh = self.path.open("ab", buffering=0)
            written = fh.write(data)
        except OSError as exc:
            with contextlib.suppress(OSError):  # the write error is the one to report
                self.close()
            raise StoreError(f"store write failed: {exc}") from exc
        if written != len(data):
            self._torn = True  # the record's head is in the file without its newline
            raise StoreError(f"store write failed: {written} of {len(data)} bytes written")
        lines = self._lines = self._lines + 1
        if (lines > MIN_COMPACT_LINES
                and lines > LINES_PER_RECORD * (len(self._ckpt) + len(self._reg))):
            self.compact()

    def _load(self) -> None:
        *lines, tail = self.path.read_bytes().split(b"\n")
        self._lines = len(lines) + bool(tail)
        if tail:
            # A record counts once its newline is written; a crash mid-append
            # leaves a last line without one, possibly cut inside a character.
            self._torn = True
            self.skipped += 1
            logger.warning("skipping torn last line %d in %s", self._lines, self.path)
        for lineno, raw in enumerate(lines, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                tag, key, *fields = _parse(line)
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and UnicodeDecodeError; json
                # raises RecursionError on an array nested too deep to decode.
                self.skipped += 1
                logger.warning("skipping corrupt store line %d in %s: %s",
                               lineno, self.path, exc)
                continue
            if tag == "REG":
                self._reg[key] = RegistryEntry(key, *fields)
            elif fields:
                self._ckpt[key] = tuple.__new__(CheckpointRecord, fields)
            else:
                self._ckpt.pop(key, None)
