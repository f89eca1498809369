import json
import os

import pytest

from healflow.persistence import Store, StoreError


def test_checkpoint_write_then_read(tmp_path):
    store = Store(tmp_path / "i.store")
    store.store_checkpoint("node-1", "lab/t", {"v": 3}, 100000)
    record = store.load_checkpoint("node-1")
    assert (record.timestamp, record.topic, record.payload) == (100000, "lab/t", {"v": 3})


def test_checkpoint_latest_wins(tmp_path):
    store = Store(tmp_path / "i.store")
    store.store_checkpoint("n", "", "first", 1)
    store.store_checkpoint("n", "", "second", 2)
    assert store.load_checkpoint("n").payload == "second"


def test_unknown_node_is_empty():
    assert Store().load_checkpoint("nope") is None


def test_clear_makes_slot_empty_but_keeps_file_history(tmp_path):
    path = tmp_path / "i.store"
    store = Store(path)
    store.store_checkpoint("n", "t", 5, 10)
    store.clear_checkpoint("n")
    assert store.load_checkpoint("n") is None
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # append-compacted: both writes present
    assert json.loads(lines[-1].split(" ", 3)[3])["payload"] is None


def test_reload_from_file_replays_last_state(tmp_path):
    path = tmp_path / "i.store"
    first = Store(path)
    first.store_checkpoint("a", "t1", 1, 10)
    first.store_checkpoint("b", "t2", [1, 2], 20)
    first.clear_checkpoint("a")
    first.registry_upsert("dev-1", "host", "10.0.0.5", 30)

    second = Store(path)
    assert second.load_checkpoint("a") is None
    assert second.load_checkpoint("b").payload == [1, 2]
    entry = second.registry_mark_lost("dev-1", 40)
    assert (entry.device_id, entry.kind, entry.endpoint, entry.last_seen) == (
        "dev-1", "host", "10.0.0.5", 30)


def test_compact_rewrites_to_live_state(tmp_path):
    path = tmp_path / "i.store"
    store = Store(path)
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


def test_registry_upsert_twice_single_entry(tmp_path):
    store = Store(tmp_path / "i.store")
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


def test_registry_list_empty_and_sorted(tmp_path):
    store = Store(tmp_path / "i.store")
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
def test_odd_tokens_survive_reload(tmp_path, node_id, device_id, kind, endpoint):
    path = tmp_path / "i.store"
    store = Store(path)
    store.store_checkpoint(node_id, "t", {"v": 1}, 10)
    store.registry_upsert(device_id, kind, endpoint, 20)
    assert len(path.read_text().splitlines()) == 2

    reloaded = Store(path)
    record = reloaded.load_checkpoint(node_id)
    assert (record.timestamp, record.topic, record.payload) == (10, "t", {"v": 1})
    written = path.read_text()
    reloaded.compact()
    assert path.read_text() == written  # the reloaded state writes the same lines
    entry = reloaded.registry_mark_lost(device_id, 30)
    assert (entry.device_id, entry.kind, entry.endpoint, entry.last_seen, entry.status) == (
        device_id, kind, endpoint, 20, "lost")


def test_plain_tokens_are_written_as_before(tmp_path):
    path = tmp_path / "i.store"
    store = Store(path)
    store.store_checkpoint("node-1", "", 1, 5)
    store.registry_upsert("dev-1", "host", "", 7)
    assert path.read_text() == ('CKPT node-1 5 {"payload":1,"topic":""}\n'
                                "REG dev-1 host - 7 online\n")


def test_failed_compact_raises_and_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "i.store"
    store = Store(path)
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
