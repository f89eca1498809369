"""Durable single-slot checkpoint store and device registry.

Backing format is one append-compacted, human-readable file per instance:

    CKPT <nodeId> <timestamp> <record-as-compact-JSON>
    REG <deviceId> <kind> <endpoint> <lastSeen> <status>

Id, kind and endpoint tokens percent-escape '%', whitespace and a lone "-"
(UTF-8 bytes as %XX), so any string reloads unchanged; an empty endpoint is
"-". Other tokens are written as they are, so files without '%' load as before.

Appends are replayed on load with last-line-wins semantics; compact()
rewrites the live state to a temp file and renames it over the store, so a
failed compaction leaves the old file whole. A store built with path=None is
memory-only but keeps the identical semantics, which is what simulated
instance restarts rely on: the store object outlives the engine.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional
from urllib.parse import unquote

from .core.envelope import encode_json

logger = logging.getLogger(__name__)

_UNSAFE = re.compile(r"[%\s]|^-\Z")


def _encode_token(token: str) -> str:
    # Fast path: every whitespace character but " " is unprintable.
    if token.isprintable() and " " not in token and "%" not in token and token != "-":
        return token
    return _UNSAFE.sub(lambda m: "".join(f"%{b:02X}" for b in m.group().encode()), token)


def _decode_token(field: str) -> str:
    return unquote(field) if "%" in field else field


class StoreError(Exception):
    """Raised when the backing file cannot be written or an op is invalid."""


@dataclass
class CheckpointRecord:
    timestamp: int
    topic: str
    payload: Any


@dataclass
class RegistryEntry:
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
        if self.path is not None and self.path.exists():
            self._load()

    # --- checkpoint slots -------------------------------------------------
    def store_checkpoint(self, node_id: str, topic: str, payload: Any, timestamp: int) -> None:
        record = CheckpointRecord(timestamp, topic, payload)
        self._ckpt[node_id] = record
        if self.path is not None:
            self._append(self._ckpt_line(node_id, record))

    def load_checkpoint(self, node_id: str) -> Optional[CheckpointRecord]:
        record = self._ckpt.get(node_id)
        return None if record is None or record.payload is None else record

    def clear_checkpoint(self, node_id: str) -> None:
        """Drop the replayable message but keep the timestamp (replay-once)."""
        record = self._ckpt.get(node_id)
        if record is None:
            return
        record = CheckpointRecord(record.timestamp, "", None)
        self._ckpt[node_id] = record
        if self.path is not None:
            self._append(self._ckpt_line(node_id, record))

    # --- device registry ----------------------------------------------------
    def registry_upsert(self, device_id: str, kind: str, endpoint: str,
                        now: int) -> RegistryEntry:
        prev = self._reg.get(device_id)
        last_seen = max(now, prev.last_seen) if prev else now
        entry = RegistryEntry(device_id, kind, endpoint, last_seen, "online")
        self._reg[device_id] = entry
        if self.path is not None:
            self._append(self._reg_line(entry))
        return entry

    def registry_mark_lost(self, device_id: str, now: int) -> RegistryEntry:
        prev = self._reg.get(device_id)
        if prev is None:
            raise StoreError(f"unknown device {device_id!r}")
        # lastSeen is retained: losing a device is not seeing it.
        entry = RegistryEntry(device_id, prev.kind, prev.endpoint, prev.last_seen, "lost")
        self._reg[device_id] = entry
        if self.path is not None:
            self._append(self._reg_line(entry))
        return entry

    # --- file backing -------------------------------------------------------
    def compact(self) -> None:
        if self.path is None:
            return
        lines = [self._ckpt_line(node_id, rec) for node_id, rec in sorted(self._ckpt.items())]
        lines += [self._reg_line(self._reg[k]) for k in sorted(self._reg)]
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text("".join(lines), encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise StoreError(f"compact failed: {exc}") from exc

    @staticmethod
    def _ckpt_line(node_id: str, record: CheckpointRecord) -> str:
        body = encode_json({"topic": record.topic, "payload": record.payload})
        return f"CKPT {_encode_token(node_id)} {record.timestamp} {body}\n"

    @staticmethod
    def _reg_line(entry: RegistryEntry) -> str:
        return (f"REG {_encode_token(entry.device_id)} {_encode_token(entry.kind)} "
                f"{_encode_token(entry.endpoint) or '-'} {entry.last_seen} {entry.status}\n")

    def _append(self, line: str) -> None:
        """Append one record line; callers build it only for a file-backed store."""
        try:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)
        except OSError as exc:
            raise StoreError(f"store write failed: {exc}") from exc

    def _load(self) -> None:
        for lineno, line in enumerate(self.path.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                tag, rest = line.split(" ", 1)
                if tag == "CKPT":
                    node_id, timestamp, body = rest.split(" ", 2)
                    parsed = json.loads(body)
                    if not isinstance(parsed, dict):
                        raise ValueError("checkpoint body is not a JSON object")
                    self._ckpt[_decode_token(node_id)] = CheckpointRecord(
                        int(timestamp), parsed.get("topic", ""), parsed.get("payload"))
                elif tag == "REG":
                    device_id, kind, endpoint, last_seen, status = rest.split(" ")
                    device_id = _decode_token(device_id)
                    self._reg[device_id] = RegistryEntry(
                        device_id, _decode_token(kind),
                        "" if endpoint == "-" else _decode_token(endpoint),
                        int(last_seen), status)
                else:
                    raise ValueError(f"unknown tag {tag!r}")
            except (ValueError, json.JSONDecodeError) as exc:
                logger.warning("skipping corrupt store line %d in %s: %s",
                               lineno, self.path, exc)
