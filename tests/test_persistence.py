import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from healflow import persistence
from healflow.persistence import Store, StoreError


@pytest.fixture
def open_store():
    """Store(path) for one test; every store it opened is closed at teardown."""
    stores = []

    def open_(path):
        stores.append(Store(path))
        return stores[-1]

    yield open_
    for store in stores:
        store.close()


def test_checkpoint_write_then_read(open_store, tmp_path):
    store = open_store(tmp_path / "i.store")
    store.store_checkpoint("node-1", "lab/t", {"v": 3}, 100000)
    record = store.load_checkpoint("node-1")
    assert (record.timestamp, record.topic, record.payload) == (100000, "lab/t", {"v": 3})


def test_checkpoint_latest_wins(open_store, tmp_path):
    store = open_store(tmp_path / "i.store")
    store.store_checkpoint("n", "", "first", 1)
    store.store_checkpoint("n", "", "second", 2)
    assert store.load_checkpoint("n").payload == "second"


def test_unknown_node_is_empty():
    assert Store().load_checkpoint("nope") is None


def test_clear_makes_slot_empty_but_keeps_file_history(open_store, tmp_path):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.store_checkpoint("n", "t", 5, 10)
    store.clear_checkpoint("n")
    assert store.load_checkpoint("n") is None
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # append-compacted: both writes present
    assert json.loads(lines[-1].split(" ", 3)[3])["payload"] is None


def test_reload_from_file_replays_last_state(open_store, tmp_path):
    path = tmp_path / "i.store"
    first = open_store(path)
    first.store_checkpoint("a", "t1", 1, 10)
    first.store_checkpoint("b", "t2", [1, 2], 20)
    first.clear_checkpoint("a")
    first.registry_upsert("dev-1", "host", "10.0.0.5", 30)

    second = open_store(path)
    assert second.load_checkpoint("a") is None
    assert second.load_checkpoint("b").payload == [1, 2]
    entry = second.registry_mark_lost("dev-1", 40)
    assert (entry.device_id, entry.kind, entry.endpoint, entry.last_seen) == (
        "dev-1", "host", "10.0.0.5", 30)


def test_compact_rewrites_to_live_state(open_store, tmp_path):
    path = tmp_path / "i.store"
    store = open_store(path)
    for i in range(5):
        store.store_checkpoint("n", "", i, i)
    store.compact()
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert Store(path).load_checkpoint("n").payload == 4


def test_corrupt_lines_are_skipped(tmp_path, caplog):
    path = tmp_path / "i.store"
    path.write_text(
        'CKPT good 10 {"payload":1,"topic":""}\n'
        "CKPT broken not-a-number {}\n"
        "GARBAGE line\n"
        "REG dev host ep 5 online\n")
    store = Store(path)
    assert store.load_checkpoint("good").payload == 1
    store.compact()
    assert path.read_text() == ('CKPT good 10 {"payload":1,"topic":""}\n'
                                "REG dev host ep 5 online\n")


def test_checkpoint_body_that_is_not_an_object_is_skipped(tmp_path, caplog):
    path = tmp_path / "i.store"
    path.write_text('CKPT a 1 [1]\nCKPT b 2 {"payload":7,"topic":"t"}\n')
    with caplog.at_level("WARNING", logger="healflow.persistence"):
        store = Store(path)
    assert store.load_checkpoint("a") is None
    good = store.load_checkpoint("b")
    assert (good.timestamp, good.topic, good.payload) == (2, "t", 7)
    assert "line 1" in caplog.text


def test_registry_upsert_twice_single_entry(open_store, tmp_path):
    store = open_store(tmp_path / "i.store")
    store.registry_upsert("d", "host", "", 10)
    entry = store.registry_upsert("d", "host", "", 50)
    assert entry.last_seen == 50
    store.compact()
    assert store.path.read_text() == "REG d host - 50 online\n"


def test_registry_mark_lost_then_upsert_back_online():
    store = Store()
    store.registry_upsert("d", "host", "", 10)
    assert store.registry_mark_lost("d", 20).status == "lost"
    assert store.registry_upsert("d", "host", "", 30).status == "online"


def test_registry_mark_lost_unknown_errors():
    with pytest.raises(StoreError):
        Store().registry_mark_lost("ghost", 10)


def test_registry_list_empty_and_sorted(open_store, tmp_path):
    store = open_store(tmp_path / "i.store")
    store.compact()
    assert store.path.read_text() == ""
    store.registry_upsert("zeta", "h", "", 1)
    store.registry_upsert("alpha", "h", "", 1)
    store.compact()
    assert store.path.read_text() == "REG alpha h - 1 online\nREG zeta h - 1 online\n"


def test_last_seen_never_decreases():
    store = Store()
    store.registry_upsert("d", "h", "", 100)
    assert store.registry_upsert("d", "h", "", 40).last_seen == 100  # stale event


def test_write_failure_raises_store_error(tmp_path):
    store = Store(tmp_path / "missing-dir" / "x.store")
    with pytest.raises(StoreError):
        store.store_checkpoint("n", "", 1, 1)


@pytest.mark.parametrize("node_id, device_id, kind, endpoint", [
    ("room 1", "room 1", "host", "10.0.0.5"),
    ("a%b", "a%b", "50%", "x%y"),
    ("-", "-", "-", "-"),
    ("n", "d", "host", ""),
    ("tab\there", "new\nline", "two words", "ep with space"),
])
def test_odd_tokens_survive_reload(open_store, tmp_path, node_id, device_id, kind, endpoint):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.store_checkpoint(node_id, "t", {"v": 1}, 10)
    store.registry_upsert(device_id, kind, endpoint, 20)
    assert len(path.read_text().splitlines()) == 2

    reloaded = open_store(path)
    record = reloaded.load_checkpoint(node_id)
    assert (record.timestamp, record.topic, record.payload) == (10, "t", {"v": 1})
    written = path.read_text()
    reloaded.compact()
    assert path.read_text() == written  # the reloaded state writes the same lines
    entry = reloaded.registry_mark_lost(device_id, 30)
    assert (entry.device_id, entry.kind, entry.endpoint, entry.last_seen, entry.status) == (
        device_id, kind, endpoint, 20, "lost")


def test_plain_tokens_are_written_as_before(open_store, tmp_path):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.store_checkpoint("node-1", "", 1, 5)
    store.registry_upsert("dev-1", "host", "", 7)
    assert path.read_text() == ('CKPT node-1 5 {"payload":1,"topic":""}\n'
                                "REG dev-1 host - 7 online\n")


def test_failed_compact_raises_and_keeps_old_file(open_store, tmp_path, monkeypatch):
    path = tmp_path / "i.store"
    store = open_store(path)
    for i in range(3):
        store.store_checkpoint("n", "", i, i)
    before = path.read_text()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(StoreError):
        store.compact()
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["i.store"]


def test_failed_write_raises_store_error_and_the_next_append_reopens(open_store, tmp_path,
                                                                      monkeypatch):
    path = tmp_path / "i.store"
    path.touch()
    store = open_store(path)
    real_open = Path.open
    # A read-only handle: its write raises io.UnsupportedOperation, an OSError.
    monkeypatch.setattr(Path, "open", lambda self, mode, **kw: real_open(self, "r", **kw))
    with pytest.raises(StoreError):
        store.store_checkpoint("n", "", 1, 1)
    monkeypatch.undo()
    store.store_checkpoint("n", "", 2, 2)
    assert path.read_text() == 'CKPT n 2 {"payload":2,"topic":""}\n'


def test_torn_tail_is_skipped_and_does_not_swallow_the_next_record(open_store, tmp_path):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.store_checkpoint("a", "", 1, 1)
    store.store_checkpoint("b", "", 2, 2)
    path.write_bytes(path.read_bytes()[:-7])  # a crash in the middle of writing b

    torn = open_store(path)
    torn.store_checkpoint("c", "", 3, 3)
    reloaded = open_store(path)
    assert reloaded.load_checkpoint("c").payload == 3
    assert reloaded.load_checkpoint("a").payload == 1
    assert reloaded.load_checkpoint("b") is None
    assert (torn.skipped, reloaded.skipped) == (1, 0)


def test_torn_tail_that_parses_is_skipped_and_dropped(open_store, tmp_path):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.registry_upsert("dev", "host", "", 5)
    path.write_bytes(path.read_bytes()[:-4])  # "REG dev host - 5 onl"

    torn = open_store(path)
    assert torn.skipped == 1
    with pytest.raises(StoreError):
        torn.registry_mark_lost("dev", 6)
    torn.registry_upsert("other", "host", "", 7)
    assert path.read_text() == "REG other host - 7 online\n"


def test_a_long_file_is_compacted_on_its_first_append(open_store, tmp_path):
    path = tmp_path / "i.store"
    path.write_text("".join(f'CKPT n {i} {{"payload":{i},"topic":""}}\n' for i in range(2000)))
    store = open_store(path)
    store.store_checkpoint("m", "", 1, 1)
    assert path.read_text() == ('CKPT m 1 {"payload":1,"topic":""}\n'
                                'CKPT n 1999 {"payload":1999,"topic":""}\n')


# --- the store against a model ------------------------------------------------------

NODE_IDS = ("a", "b", "n\u0153ud")  # a multi-byte id, so a cut can split a character
DEVICE_IDS = ("d1", "d2")
TIMES = st.integers(0, 50)


def render(line) -> str:
    """The text of one model line, as the store writes it."""
    table, key, value = line
    if table == "ckpt":
        timestamp, topic, payload = value
        body = json.dumps({"payload": payload, "topic": topic}, separators=(",", ":"),
                          sort_keys=True)
        return f"CKPT {key} {timestamp} {body}\n"
    kind, last_seen, status = value
    return f"REG {key} {kind} - {last_seen} {status}\n"


class StoreModel(RuleBasedStateMachine):
    """A file-backed Store against dicts, and its file against the model's lines.

    Each model line is (table, key, value); the dicts are always the replay
    of the lines, so a reload after truncation must show the replay of the
    complete lines kept.
    """

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name) / "i.store"
        self.store = Store(self.path)
        self.lines: list[tuple] = []
        self.torn = False  # the file ends in a fragment that no append has dropped yet
        self.tables = {"ckpt": {}, "reg": {}}

    def teardown(self):
        self.store.close()
        self.dir.cleanup()

    def bound(self) -> int:
        live = len(self.tables["ckpt"]) + len(self.tables["reg"])
        return max(persistence.MIN_COMPACT_LINES, persistence.LINES_PER_RECORD * live)

    def live_lines(self) -> list[tuple]:
        return [(table, key, rows[key]) for table, rows in self.tables.items()
                for key in sorted(rows)]

    def appended(self, table, key, value):
        self.tables[table][key] = value
        if self.torn:
            self.lines, self.torn = self.live_lines(), False
        else:
            self.lines.append((table, key, value))
            if len(self.lines) > self.bound():
                self.lines = self.live_lines()
        data = self.path.read_bytes()
        assert data.endswith(b"\n")
        assert data.count(b"\n") == len(self.lines) <= self.bound()

    def reload(self):
        self.store.close()
        self.store = Store(self.path)
        assert self.store.skipped == self.torn

    @rule(node=st.sampled_from(NODE_IDS), topic=st.sampled_from(["", "t"]),
          payload=st.integers(0, 9), now=TIMES)
    def store_checkpoint(self, node, topic, payload, now):
        self.store.store_checkpoint(node, topic, payload, now)
        self.appended("ckpt", node, (now, topic, payload))

    @rule(node=st.sampled_from(NODE_IDS))
    def clear_checkpoint(self, node):
        self.store.clear_checkpoint(node)
        if node in self.tables["ckpt"]:
            self.appended("ckpt", node, (self.tables["ckpt"][node][0], "", None))

    @rule(device=st.sampled_from(DEVICE_IDS), kind=st.sampled_from(["host", "service"]),
          now=TIMES)
    def registry_upsert(self, device, kind, now):
        entry = self.store.registry_upsert(device, kind, "", now)
        prev = self.tables["reg"].get(device)
        value = (kind, max(now, prev[1]) if prev else now, "online")
        assert (entry.kind, entry.endpoint, entry.last_seen, entry.status) == (
            value[0], "", value[1], value[2])
        self.appended("reg", device, value)

    @rule(device=st.sampled_from(DEVICE_IDS), now=TIMES)
    def registry_mark_lost(self, device, now):
        prev = self.tables["reg"].get(device)
        if prev is None:
            with pytest.raises(StoreError):
                self.store.registry_mark_lost(device, now)
            return
        entry = self.store.registry_mark_lost(device, now)
        assert (entry.kind, entry.last_seen, entry.status) == (prev[0], prev[1], "lost")
        self.appended("reg", device, (prev[0], prev[1], "lost"))

    @rule()
    def compact(self):
        self.store.compact()
        self.lines, self.torn = self.live_lines(), False
        assert self.path.read_text(encoding="utf-8") == "".join(map(render, self.lines))

    @rule()
    def reload_the_file(self):
        self.reload()

    @precondition(lambda self: self.path.exists())
    @rule(data=st.data())
    def truncate_and_reload(self, data):
        text = self.path.read_bytes()
        kept = text[:data.draw(st.integers(0, len(text)), label="cut")]
        self.path.write_bytes(kept)
        self.lines = self.lines[:kept.count(b"\n")]
        self.torn = not kept.endswith(b"\n") and bool(kept)
        self.tables = {"ckpt": {}, "reg": {}}
        for table, key, value in self.lines:
            self.tables[table][key] = value
        self.reload()

    @invariant()
    def checkpoints_match(self):
        for node in NODE_IDS:
            want = self.tables["ckpt"].get(node)
            record = self.store.load_checkpoint(node)
            if want is None or want[2] is None:
                assert record is None
            else:
                assert (record.timestamp, record.topic, record.payload) == want


def test_store_matches_a_dict_model(monkeypatch):
    # A low bound, so that short runs cross it and compact themselves.
    monkeypatch.setattr(persistence, "MIN_COMPACT_LINES", 6)
    run_state_machine_as_test(StoreModel, settings=settings(
        max_examples=60, stateful_step_count=40, deadline=None))
