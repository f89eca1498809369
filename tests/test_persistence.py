import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from healflow import persistence
from healflow.persistence import CheckpointRecord, Store, StoreError


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
    assert json.loads(lines[-1]) == ["CKPT", "n"]


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
    entry = second.registry_mark_lost("dev-1")
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
        '["CKPT","good",10,"",1]\n'
        '["CKPT","broken","not-a-number","",{}]\n'
        "GARBAGE line\n"
        '["REG","dev","host","ep",5,"online"]\n')
    store = Store(path)
    assert store.load_checkpoint("good").payload == 1
    store.compact()
    assert path.read_text() == ('["CKPT","good",10,"",1]\n'
                                '["REG","dev","host","ep",5,"online"]\n')


@pytest.mark.parametrize("bad", [
    "GARBAGE line",                               # not JSON
    '{"tag":"CKPT"}',                             # JSON that is not a list
    "[]",                                         # an empty list
    '[["CKPT"],"n"]',                             # a tag that is not a string
    '["SNAP","n",2,"",8]',                        # an unknown tag
    '["CKPT","n",2,""]',                          # a wrong number of fields
    '["CKPT","n","2","",8]',                      # a string timestamp
    '["CKPT","n",true,"",8]',                     # a bool timestamp
    '["REG","d","host","",true,"online"]',        # a bool lastSeen
    'CKPT n 2 {"payload":8,"topic":""}',          # the older space-separated format
    pytest.param("[" * 100000, id="nested-too-deep"),
])
def test_a_line_of_no_known_shape_is_skipped_and_the_next_line_loads(tmp_path, caplog, bad):
    path = tmp_path / "i.store"
    path.write_text(f'["CKPT","n",1,"",7]\n{bad}\n["CKPT","m",3,"t",9]\n')
    with caplog.at_level("WARNING", logger="healflow.persistence"):
        store = Store(path)
    assert store.skipped == 1
    assert "line 2" in caplog.text
    assert store.load_checkpoint("n").payload == 7
    assert store.load_checkpoint("m").payload == 9
    store.compact()
    assert path.read_text() == '["CKPT","m",3,"t",9]\n["CKPT","n",1,"",7]\n'


def test_a_blank_line_is_skipped_and_not_counted(tmp_path, caplog):
    path = tmp_path / "i.store"
    path.write_text('["CKPT","n",1,"",7]\n\n  \n["CKPT","m",3,"t",9]\n')
    with caplog.at_level("WARNING", logger="healflow.persistence"):
        store = Store(path)
    assert store.skipped == 0
    assert caplog.text == ""
    assert store.load_checkpoint("n").payload == 7
    assert store.load_checkpoint("m").payload == 9


def test_a_stored_null_reloads_and_a_cleared_slot_stays_cleared(open_store, tmp_path):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.store_checkpoint("null", "t", None, 5)
    store.store_checkpoint("gone", "t", 1, 6)
    store.clear_checkpoint("gone")
    reloaded = open_store(path)
    assert reloaded.load_checkpoint("null") == CheckpointRecord(5, "t", None)
    assert reloaded.load_checkpoint("gone") is None
    reloaded.compact()
    assert path.read_text() == '["CKPT","null",5,"t",null]\n'


def test_checkpoint_body_that_is_not_an_object_is_skipped(tmp_path, caplog):
    path = tmp_path / "i.store"
    path.write_text('["CKPT","a",1,[1],null]\n["CKPT","b",2,"t",7]\n')
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
    assert store.path.read_text() == '["REG","d","host","",50,"online"]\n'


def test_registry_mark_lost_then_upsert_back_online():
    store = Store()
    store.registry_upsert("d", "host", "", 10)
    assert store.registry_mark_lost("d").status == "lost"
    assert store.registry_upsert("d", "host", "", 30).status == "online"


def test_registry_mark_lost_unknown_errors():
    with pytest.raises(StoreError):
        Store().registry_mark_lost("ghost")


def test_registry_list_empty_and_sorted(open_store, tmp_path):
    store = open_store(tmp_path / "i.store")
    store.compact()
    assert store.path.read_text() == ""
    store.registry_upsert("zeta", "h", "", 1)
    store.registry_upsert("alpha", "h", "", 1)
    store.compact()
    assert store.path.read_text() == ('["REG","alpha","h","",1,"online"]\n'
                                      '["REG","zeta","h","",1,"online"]\n')


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
    entry = reloaded.registry_mark_lost(device_id)
    assert (entry.device_id, entry.kind, entry.endpoint, entry.last_seen, entry.status) == (
        device_id, kind, endpoint, 20, "lost")


def test_plain_tokens_are_written_as_before(open_store, tmp_path):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.store_checkpoint("node-1", "", 1, 5)
    store.registry_upsert("dev-1", "host", "", 7)
    assert path.read_text() == ('["CKPT","node-1",5,"",1]\n'
                                '["REG","dev-1","host","",7,"online"]\n')


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
    monkeypatch.setattr(Path, "open", lambda self, mode, **kw: real_open(self, "rb", **kw))
    with pytest.raises(StoreError):
        store.store_checkpoint("n", "", 1, 1)
    monkeypatch.undo()
    store.store_checkpoint("n", "", 2, 2)
    assert path.read_text() == '["CKPT","n",2,"",2]\n'


class HalfWrites(io.FileIO):
    """A file whose every write stops halfway, as a full disk can stop one."""

    def write(self, data):
        return super().write(data[:len(data) // 2])


def test_short_write_raises_store_error_and_the_next_append_compacts(open_store, tmp_path,
                                                                     monkeypatch):
    path = tmp_path / "i.store"
    store = open_store(path)
    store.store_checkpoint("a", "", 1, 1)
    store.close()
    monkeypatch.setattr(Path, "open", lambda self, mode, **kw: HalfWrites(self, mode))
    with pytest.raises(StoreError, match="bytes written"):
        store.store_checkpoint("b", "", 2, 2)
    monkeypatch.undo()
    store.store_checkpoint("c", "", 3, 3)
    reloaded = open_store(path)
    assert reloaded.skipped == 0
    assert [reloaded.load_checkpoint(k).payload for k in "abc"] == [1, 2, 3]


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
    path.write_bytes(path.read_bytes()[:-1])  # the whole line but its newline

    torn = open_store(path)
    assert torn.skipped == 1
    with pytest.raises(StoreError):
        torn.registry_mark_lost("dev")
    torn.registry_upsert("other", "host", "", 7)
    assert path.read_text() == '["REG","other","host","",7,"online"]\n'


def test_a_long_file_is_compacted_on_its_first_append(open_store, tmp_path):
    path = tmp_path / "i.store"
    path.write_text("".join(f'["CKPT","n",{i},"",{i}]\n' for i in range(2000)))
    store = open_store(path)
    store.store_checkpoint("m", "", 1, 1)
    assert path.read_text() == ('["CKPT","m",1,"",1]\n'
                                '["CKPT","n",1999,"",1999]\n')


def test_a_file_of_min_compact_lines_is_kept_and_the_next_append_compacts(open_store, tmp_path):
    path = tmp_path / "i.store"
    n = persistence.MIN_COMPACT_LINES
    path.write_text("".join(f'["CKPT","n",{i},"",{i}]\n' for i in range(n - 1)))
    store = open_store(path)
    store.store_checkpoint("n", "", n - 1, n - 1)
    assert len(path.read_text().splitlines()) == n
    store.store_checkpoint("n", "", n, n)
    assert path.read_text() == f'["CKPT","n",{n},"",{n}]\n'


def test_the_torn_tail_warning_names_the_line_after_the_whole_ones(tmp_path, caplog):
    path = tmp_path / "i.store"
    path.write_text('["CKPT","a",1,"",1]\n["CKPT","b",2,"",2]\n["CKPT","c",3')
    with caplog.at_level("WARNING", logger="healflow.persistence"):
        store = Store(path)
    assert store.skipped == 1
    assert caplog.messages == [f"skipping torn last line 3 in {path}"]


# --- the store against a model ------------------------------------------------------

# Strings of characters that JSON escapes (a quote, a backslash, control
# characters) or writes as \u escapes (non-ASCII, an astral one among them),
# from an alphabet small enough that draws repeat and overwrite a slot.
NAMES = st.text(st.sampled_from('a"\\\0\n\x1f\u0153\U0001f600'), max_size=3)
DEVICE_IDS = ("d1", "d2")
TIMES = st.integers(0, 50)
# JSON values, NaN, the infinities and -0.0 among the floats, and dicts whose
# keys are drawn in no particular order.
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(-0.0) | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=6)


def canonical(value) -> str:
    """A value's JSON text with sorted keys: equal for a payload and its reload, NaN too."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def render(line) -> str:
    """The text of one model line, as the store writes it."""
    table, key, value = line
    if table == "ckpt":
        fields = ["CKPT", key] if value is None else ["CKPT", key, *value]
    else:
        kind, last_seen, status = value
        fields = ["REG", key, kind, "", last_seen, status]
    return canonical(fields) + "\n"


class StoreModel(RuleBasedStateMachine):
    """A file-backed Store against dicts, and its file against the model's lines.

    Each model line is (table, key, value), where a value of None clears a
    checkpoint slot; the dicts are always the replay of the lines, so a
    reload after truncation must show the replay of the complete lines kept.
    """

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name) / "i.store"
        self.store = Store(self.path)
        self.lines: list[tuple] = []
        self.torn = False  # the file ends in a fragment that no append has dropped yet
        self.tables = {"ckpt": {}, "reg": {}}
        self.nodes: set[str] = set()  # every node id stored at

    def teardown(self):
        self.store.close()
        self.dir.cleanup()

    def bound(self) -> int:
        live = len(self.tables["ckpt"]) + len(self.tables["reg"])
        return max(persistence.MIN_COMPACT_LINES, persistence.LINES_PER_RECORD * live)

    def live_lines(self) -> list[tuple]:
        return [(table, key, rows[key]) for table, rows in self.tables.items()
                for key in sorted(rows)]

    def replay(self, table, key, value):
        if value is None:
            del self.tables[table][key]
        else:
            self.tables[table][key] = value

    def appended(self, table, key, value):
        self.replay(table, key, value)
        if self.torn:
            self.lines, self.torn = self.live_lines(), False
        else:
            self.lines.append((table, key, value))
            if len(self.lines) > self.bound():
                self.lines = self.live_lines()
        # A clear can leave no live record, so the file may be empty.
        assert self.path.read_text(encoding="utf-8") == "".join(map(render, self.lines))
        assert len(self.lines) <= self.bound()

    def reload(self):
        self.store.close()
        self.store = Store(self.path)
        assert self.store.skipped == self.torn

    @rule(node=NAMES, topic=NAMES, payload=PAYLOADS, now=TIMES)
    def store_checkpoint(self, node, topic, payload, now):
        self.store.store_checkpoint(node, topic, payload, now)
        self.nodes.add(node)
        self.appended("ckpt", node, (now, topic, payload))

    @rule(nodes=st.lists(NAMES, min_size=2, max_size=4), topic=NAMES, payload=PAYLOADS,
          now=TIMES)
    def store_one_payload_along_a_chain(self, nodes, topic, payload, now):
        # A chain of checkpoint nodes stores one message object at each node in turn.
        for node in nodes:
            self.store_checkpoint(node, topic, payload, now)

    @rule(node=NAMES)
    def clear_checkpoint(self, node):
        self.store.clear_checkpoint(node)
        if node in self.tables["ckpt"]:
            self.appended("ckpt", node, None)

    @rule(device=st.sampled_from(DEVICE_IDS), kind=st.sampled_from(["host", "service"]),
          now=TIMES)
    def registry_upsert(self, device, kind, now):
        entry = self.store.registry_upsert(device, kind, "", now)
        prev = self.tables["reg"].get(device)
        value = (kind, max(now, prev[1]) if prev else now, "online")
        assert (entry.kind, entry.endpoint, entry.last_seen, entry.status) == (
            value[0], "", value[1], value[2])
        self.appended("reg", device, value)

    @rule(device=st.sampled_from(DEVICE_IDS))
    def registry_mark_lost(self, device):
        prev = self.tables["reg"].get(device)
        if prev is None:
            with pytest.raises(StoreError):
                self.store.registry_mark_lost(device)
            return
        entry = self.store.registry_mark_lost(device)
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
        for line in self.lines:
            self.replay(*line)
        self.reload()

    @invariant()
    def checkpoints_match(self):
        for node in self.nodes:
            want = self.tables["ckpt"].get(node)
            record = self.store.load_checkpoint(node)
            if want is None:
                assert record is None
            else:
                assert (record.timestamp, record.topic, canonical(record.payload)) == (
                    want[0], want[1], canonical(want[2]))


def test_store_matches_a_dict_model(monkeypatch):
    # A low bound, so that short runs cross it and compact themselves.
    monkeypatch.setattr(persistence, "MIN_COMPACT_LINES", 6)
    run_state_machine_as_test(StoreModel, settings=settings(
        max_examples=60, stateful_step_count=40, deadline=None))


def test_store_model_example_with_a_first_null_and_equal_payloads():
    # Hypothesis takes no @example for a state machine, so this one runs as steps.
    # After the null come payloads equal to the last one stored but other objects.
    state = StoreModel()
    try:
        state.store_checkpoint(node="a", topic="t", payload=None, now=5)
        state.checkpoints_match()
        for payload in (0.0, -0.0, 1, True, 1.0):
            state.store_checkpoint(node="b", topic="t", payload=payload, now=6)
        state.store_one_payload_along_a_chain(nodes=["a", "b"], topic="t", payload=None, now=6)
        state.reload_the_file()
        state.checkpoints_match()
    finally:
        state.teardown()
