import csv
import io
import json
import tracemalloc
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from healflow.core import timeline
from healflow.core.envelope import encode_json
from healflow.core.timeline import CSV_HEADER, KINDS, TimelineEntry, TimelineLog, entries_from_csv
from healflow.report import (MAX_BUCKETS, compute_report, default_bucket, format_report,
                             render_marble)
from tests.conftest import build_graph, make_spec


def entry(time, instance, kind, node, port=None, topic="", value=None):
    return TimelineEntry(time, instance, kind, node, port, topic, value)


# --- CSV schema -----------------------------------------------------------------

def test_csv_header_is_stable():
    log = TimelineLog()
    assert log.to_csv().splitlines()[0] == "time_ms,instance,event,node,port,topic,value"


def test_csv_round_trip():
    log = TimelineLog()
    log.add(0, "i0", "emit", "s", 0, "lab/t", {"v": 1.5})
    log.add(10, "world", "fault", "d", None, "", {"kind": "device_offline"})
    log.add(10, "i0", "timer", "n", None, "", "interval")
    parsed = entries_from_csv(log.to_csv())
    assert parsed == log.entries


def test_logged_and_parsed_entries_are_timeline_entries():
    log = TimelineLog()
    log.add(0, "i0", "emit", "s", 0, "lab/t", {"v": 1.5})
    log.add(10, "world", "fault", "d", value={"kind": "device_offline"})
    expected = [
        TimelineEntry(time=0, instance="i0", kind="emit", node="s", port=0, topic="lab/t",
                      value={"v": 1.5}),
        TimelineEntry(time=10, instance="world", kind="fault", node="d", port=None, topic="",
                      value={"kind": "device_offline"})]
    for entries in (log.entries, entries_from_csv(log.to_csv())):
        assert [type(e) for e in entries] == [TimelineEntry, TimelineEntry]
        assert entries == expected
        assert entries[1]._replace(time=20) == expected[1]._replace(time=20)


def test_csv_value_is_compact_sorted_json():
    log = TimelineLog()
    log.add(0, "i", "emit", "n", 0, "", {"b": 1, "a": 2})
    line = log.to_csv().splitlines()[1]
    assert '""a"":2,""b"":1' in line  # csv-quoted compact JSON


def test_csv_round_trip_of_a_value_past_the_csv_field_limit():
    limit = csv.field_size_limit()
    log = TimelineLog()
    log.add(0, "a", "emit", "n", 0, "t", {"blob": "x" * 200_000})
    assert entries_from_csv(log.to_csv()) == log.entries
    assert csv.field_size_limit() == limit


def test_csv_errors_load_as_value_errors():
    limit = csv.field_size_limit()
    with pytest.raises(ValueError):  # the csv reader takes the bare "\r" for a line end
        entries_from_csv(",".join(CSV_HEADER) + '\n0,a\rb,emit,n,,t,1\n')
    assert csv.field_size_limit() == limit


def test_log_rejects_an_unknown_kind_and_a_time_that_goes_back():
    log = TimelineLog()
    log.add(10, "a", "emit", "n")
    with pytest.raises(ValueError, match="unknown event kind 'explode'"):
        log.add(10, "a", "explode", "n")
    with pytest.raises(ValueError, match="non-decreasing"):
        log.add(9, "a", "emit", "n")
    log.add(10, "a", "deliver", "n")
    assert [(e.time, e.kind) for e in log] == [(10, "emit"), (10, "deliver")]


def reference_csv(entries):
    """The per-row encoder: csv.writer plus encode_json on every entry.

    Each row is written with a "\\r\\n" line end, which makes csv.writer
    quote a "\\r" on every Python, and then ends in "\\n" instead.
    """
    rows = [CSV_HEADER] + [[e.time, e.instance, e.kind, e.node, "" if e.port is None else e.port,
                            e.topic, encode_json(e.value)] for e in entries]
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


NAMES = st.text(st.sampled_from('a,"\n\r\u00e9\u6f22'), max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(NAMES, kids, max_size=3),
    max_leaves=8)


@st.composite
def logs(draw, names=NAMES):
    """Runs of consecutive entries that log one value object, as an emit and its delivers do."""
    log, time = TimelineLog(), 0
    row = st.tuples(st.integers(0, 5), names, st.sampled_from(KINDS), names,
                    st.none() | st.integers(-5, 99), names)
    runs = st.lists(st.tuples(JSON_VALUES, st.lists(row, min_size=1, max_size=4)), max_size=8)
    for value, rows in draw(runs):
        for delta, instance, kind, node, port, topic in rows:
            time += delta
            log.add(time, instance, kind, node, port, topic, value)
    return log


def equal_values_of_other_types():
    log = TimelineLog()
    for value in (1, True, 1.0, 0, False, 0.0, -0.0):
        log.add(0, "a", "emit", "n", 0, "t", value)
    return log


def one_value_per_quoting_branch():
    """Value texts with and without '"' and ',', logged under the empty topic."""
    log = TimelineLog()
    for value in ([], {}, [1], "", "a,b", 1.5, float("nan"), float("-inf")):
        log.add(0, "a", "emit", "n", 0, "", value)
    return log


def names_that_csv_quotes():
    """Names holding ',', '"', '\\n' and '\\r', each of which _field quotes."""
    log = TimelineLog()
    log.add(0, "a,b", "emit", 'n"1', 0, "t\nu", 1)
    log.add(1, 'a"', "deliver", "n\n", None, ",", 1)
    log.add(1, "a\r", "emit", "\r\n", 0, '\r"', 1)
    return log


@settings(max_examples=200, deadline=None)
@given(logs())
@example(equal_values_of_other_types())
@example(one_value_per_quoting_branch())
@example(names_that_csv_quotes())
def test_csv_codec_matches_the_per_row_reference(log):
    text = log.to_csv()
    assert text == reference_csv(log.entries)
    parsed = entries_from_csv(text)
    assert [e[:6] for e in parsed] == [e[:6] for e in log]
    assert [encode_json(e.value) for e in parsed] == [encode_json(e.value) for e in log]


@st.composite
def value_texts(draw):
    """encode_json texts, as written or with whitespace around, a BOM, extra data or a cut."""
    text = encode_json(draw(JSON_VALUES))
    space = st.text(st.sampled_from(" \t\n\r"), min_size=1, max_size=3)
    change = draw(st.sampled_from(["none", "lead", "trail", "bom", "extra", "cut"]))
    if change == "lead":
        text = draw(space) + text
    elif change == "trail":
        text += draw(space)
    elif change == "bom":
        text = "\ufeff" + text
    elif change == "extra":
        text += "x"
    elif change == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=300, deadline=None)
@given(value_texts())
@example(" 1")
@example("1\r\n")
@example("\ufeff[]")
@example("[]x")
@example('{"a":')
def test_value_text_decodes_as_json_loads_decodes_it(text):
    csv_text = ",".join(CSV_HEADER) + '\n0,a,emit,n,,t,"' + text.replace('"', '""') + '"\n'
    try:
        expected = json.loads(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            entries_from_csv(csv_text)
        assert str(raised.value) == str(exc)
        return
    # repr tells 1, 1.0 and True apart, and takes nan for nan
    assert repr(entries_from_csv(csv_text)[0].value) == repr(expected)


def reference_entries(text):
    """entries_from_csv as one StringIO reads it, with the rules TimelineLog.add applies."""
    old_limit = csv.field_size_limit(len(text) + 1)
    try:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected timeline header: {header}")
        out = []
        for time, instance, kind, node, port, topic, value in reader:
            if kind not in KINDS:
                raise ValueError(f"unknown event kind {kind!r}")
            if out and int(time) < out[-1].time:
                raise ValueError("timeline times must be non-decreasing")
            out.append(TimelineEntry(int(time), instance, kind, node,
                                     None if port == "" else int(port), topic, json.loads(value)))
    except csv.Error as exc:
        raise ValueError(str(exc)) from exc
    finally:
        csv.field_size_limit(old_limit)
    return out


def parse_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


# The time and port fields read any text int() reads. A faster reader keeps
# this rule or changes it on purpose, here.
@pytest.mark.parametrize("text, number", [("1_0", 10), ("+5", 5), (" 5", 5), ("\u0665", 5),
                                          ("-3", -3), ("05", 5)])
def test_time_and_port_texts_read_as_int_reads_them(text, number):
    csv_text = ",".join(CSV_HEADER) + f"\n{text},a,emit,n,{text},t,1\n"
    parsed = entries_from_csv(csv_text)
    assert parsed == reference_entries(csv_text)
    assert (parsed[0].time, parsed[0].port) == (number, number)


# _field leaves "\x0b", "\x0c", "\x1c", "\x85" and "\u2028" unquoted; str.splitlines breaks
# a line at each of them, one StringIO only at "\n".
LINE_BREAKS = st.text(st.sampled_from('a,"\n\x0b\x0c\x1c\x85\u2028\u00e9'), max_size=4)
BAD_TAILS = st.sampled_from(["", "0,a,explode,n,,t,1\n", "-1,a,emit,n,,t,1\n",
                             "0,a,emit,n,x,t,1\n", '0,a,emit,n,,t,"{\n'])


@pytest.mark.parametrize("slice_chars", [1, 7, timeline._SLICE])
@settings(max_examples=200, deadline=None)
@given(log=logs(LINE_BREAKS), tail=BAD_TAILS)
def test_sliced_csv_read_matches_one_stringio(slice_chars, log, tail):
    text = log.to_csv() + tail
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timeline, "_SLICE", slice_chars)
        parsed = parse_or_error(entries_from_csv, text)
    # repr tells 1, 1.0 and True apart, and takes nan for nan
    assert repr(parsed) == repr(parse_or_error(reference_entries, text))
    if isinstance(parsed, str):
        return
    shared = {}
    for e in parsed:
        assert any(e.kind is kind for kind in KINDS)
        for name in (e.instance, e.node, e.topic):
            if len(name) > 1:  # CPython already shares each one-character string
                assert shared.setdefault(name, name) is name


def test_csv_read_rejects_a_nul_in_a_quoted_name():
    log = TimelineLog()
    log.add(0, "a", "emit", "n", 0, 't,"\0', 1)
    text = log.to_csv()
    assert '"t,""\0"' in text
    with pytest.raises(ValueError, match="NUL"):
        entries_from_csv(text)


CSV_CHARS = st.sampled_from('0123456789-,"\n\r\0 ae[]{}:.') | st.characters()
CSV_ROWS = (st.lists(st.sampled_from(["0", "-1", "emit", "", '"', '""', "[", "1e999999"])
                     | st.text(CSV_CHARS, max_size=5), min_size=6, max_size=8).map(",".join)
            | st.text(CSV_CHARS, max_size=20))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(CSV_ROWS, max_size=4), end=st.sampled_from(["\n", "\r\n", "\r"]))
@example(rows=["0,a,emit,n,,t," + "[" * 100_000], end="\n")
@example(rows=["0,a,emit,n,,t,1", "-1,a,emit,n,,t,1"], end="\n")
def test_csv_read_of_any_text_raises_only_value_error(rows, end):
    try:
        entries_from_csv(",".join(CSV_HEADER) + "\n" + end.join(rows))
    except ValueError:
        pass


def test_csv_parse_holds_no_copy_of_the_text():
    log = TimelineLog()
    value = {"blob": "x" * 20_000}
    for time in range(200):
        log.add(time, "a", "emit", "n", 0, "t", value)
    text = log.to_csv()
    tracemalloc.start()
    try:
        entries = entries_from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entries) == 200 and entries[-1].value == value
    assert peak < len(text), f"peak {peak} bytes for a text of {len(text)} characters"


# --- mttr -------------------------------------------------------------------------

def failover_entries():
    return [
        entry(0, "red-b", "role-change", "red", value={"role": "master", "epoch": 1}),
        entry(60000, "red-b", "emit", "post", 0, "service/telemetry", 21.0),
        entry(300000, "world", "fault", "red-b", value={"kind": "instance_crash"}),
        entry(309000, "red-a", "role-change", "red", value={"role": "master", "epoch": 1}),
        entry(309000, "red-a", "emit", "notify", 0, "service/notify", {"role": "master"}),
        entry(360000, "red-a", "emit", "post", 0, "service/telemetry", 20.5),
    ]


def test_mttr_single_failover_sample():
    assert compute_report(failover_entries()).mttr_samples == [9000]


def test_mttr_needs_master_crash():
    entries = [
        entry(10, "world", "fault", "red-a", value={"kind": "instance_crash"}),
        entry(20, "red-b", "emit", "post", 0, "service/t", 1),
    ]
    assert compute_report(entries).mttr_samples == []  # crashed instance was never master


def test_mttr_na_formatting():
    report = compute_report([])
    text = format_report(report, "mttr")
    assert "n/a" in text


def test_format_report_rejects_an_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'latency'"):
        format_report(compute_report(failover_entries()), "latency")


def test_mttr_mean_and_stdev_formatting():
    report = compute_report(failover_entries())
    text = format_report(report, "mttr")
    assert "mean=9000.0" in text
    assert "n=1" in text


# --- loss ---------------------------------------------------------------------------

def loss_entries(delivered):
    entries = []
    for i in range(22):
        t = (i + 1) * 60000
        entries.append(entry(t, "world", "emit", "dht-1", 0, "lab/dht", 21.0))
        if i != 4 or delivered == 22:  # reading five lost unless told otherwise
            entries.append(entry(t, "red-b", "emit", "post", 0, "service/telemetry", 21.0))
    return entries


def test_loss_expected_vs_delivered():
    report = compute_report(loss_entries(21))
    assert report.expected == {"dht-1": 22}
    assert report.delivered == {"service/telemetry": 21}
    assert report.loss("service/telemetry") == 1
    text = format_report(report, "loss", sink="telemetry")
    assert "delivered=21 expected=22 loss=1" in text


def test_loss_zero_when_all_delivered():
    report = compute_report(loss_entries(22))
    assert report.loss("service/telemetry") == 0


# --- uptime ---------------------------------------------------------------------------

def test_uptime_clips_crash_windows():
    entries = [
        entry(0, "a", "emit", "n", 0, "", 1),
        entry(100, "world", "fault", "a", value={"kind": "instance_crash"}),
        entry(400, "world", "fault", "a", value={"kind": "instance_restart"}),
        entry(1000, "a", "emit", "n", 0, "", 1),
    ]
    assert compute_report(entries).uptime == {"a": 700}


# --- the one-pass fold against the multi-pass reference -----------------------------
# One pass per figure over a list: the definitions compute_report's single
# fold must keep matching.

def reference_report(entries):
    entries = list(entries)
    expected, delivered = {}, {}
    for e in entries:
        if e.kind == "emit" and e.instance == "world":
            expected[e.node] = expected.get(e.node, 0) + 1
    for e in entries:
        if e.kind == "emit" and e.topic.startswith("service/"):
            delivered[e.topic] = delivered.get(e.topic, 0) + 1
    return expected, delivered, reference_mttr(entries), reference_uptime(entries)


def reference_mttr(entries):
    samples = []
    master: Optional[str] = None
    crash_at: Optional[int] = None
    crashed: Optional[str] = None
    for e in entries:
        if e.kind == "role-change" and isinstance(e.value, dict):
            if e.value.get("role") == "master":
                master = e.instance
        elif e.kind == "fault" and isinstance(e.value, dict) \
                and e.value.get("kind") == "instance_crash":
            if e.node == master:
                crash_at, crashed = e.time, e.node
        elif (crash_at is not None and e.kind == "emit"
              and e.topic.startswith("service/")
              and e.instance not in (crashed, "world")):
            samples.append(e.time - crash_at)
            crash_at = crashed = None
    return samples


def reference_uptime(entries):
    t_end = entries[-1].time if entries else 0
    instances = sorted({e.instance for e in entries if e.instance != "world"})
    up_since = {name: 0 for name in instances}
    total = {name: 0 for name in instances}
    for e in entries:
        if e.kind != "fault" or not isinstance(e.value, dict):
            continue
        if e.value.get("kind") == "instance_crash" and e.node in up_since:
            if up_since[e.node] is not None:
                total[e.node] += e.time - up_since[e.node]
                up_since[e.node] = None
        elif e.value.get("kind") == "instance_restart" and e.node in up_since:
            if up_since[e.node] is None:
                up_since[e.node] = e.time
    for name, since in up_since.items():
        if since is not None:
            total[name] += t_end - since
    return total


def crash(time, node):
    return entry(time, "world", "fault", node, value={"kind": "instance_crash"})


def restart(time, node):
    return entry(time, "world", "fault", node, value={"kind": "instance_restart"})


# "b" crashes while "a" is master, "a" restarts without a crash, "d"
# crashes without ever logging an entry of its own; then master "a" crashes
# and a world emit on a sink topic does not count as its recovery.
EDGE_TIMELINE = [
    entry(0, "a", "role-change", "red", value={"role": "master"}),
    entry(10, "b", "emit", "post", 0, "service/t", 1),
    crash(20, "b"),
    restart(30, "a"),
    crash(40, "d"),
    entry(50, "c", "emit", "post", 0, "service/t", 1),
    restart(70, "b"),
    crash(80, "a"),
    entry(85, "world", "emit", "dev", 0, "service/t", 1),
    entry(90, "c", "emit", "post", 0, "service/t", 1),
    entry(100, "b", "emit", "post", 0, "service/t", 1),
]


def test_fold_edge_cases():
    report = compute_report(EDGE_TIMELINE)
    assert report.mttr_samples == [10]
    assert report.uptime == {"a": 80, "b": 50, "c": 100}
    assert report.expected == {"dev": 1}
    assert report.delivered == {"service/t": 5}


def _entries(kind, values):
    # Few names, so masters crash and other instances deliver often; "d"
    # never logs an entry of its own.
    return st.tuples(st.integers(0, 40), st.sampled_from(("world", "a", "b")),
                     st.just(kind), st.sampled_from(("a", "b", "d")),
                     st.sampled_from(("lab/t", "service/x", "service/y")), values)


ENTRY_PARTS = st.one_of(
    _entries("emit", st.integers(0, 3)),
    _entries("deliver", st.integers(0, 3)),
    _entries("role-change", st.sampled_from(({"role": "master"}, {"role": "standby"}, None))),
    _entries("fault", st.sampled_from(({"kind": "instance_crash"}, {"kind": "instance_restart"},
                                       {"kind": "operator-error"}, None))),
)


@st.composite
def timelines(draw):
    time, out = 0, []
    for delta, instance, kind, node, topic, value in draw(
            st.lists(ENTRY_PARTS, min_size=10, max_size=60)):
        time += delta
        out.append(entry(time, instance, kind, node, 0, topic, value))
    return out


@settings(max_examples=300, deadline=None)
@given(timelines())
@example(EDGE_TIMELINE)
@example([])
def test_fold_matches_the_multi_pass_reference(timeline):
    """One pass over a one-shot generator gives every figure, in the same key order."""
    report = compute_report(e for e in timeline)
    expected, delivered, samples, uptime = reference_report(timeline)
    assert list(report.expected.items()) == list(expected.items())
    assert list(report.delivered.items()) == list(delivered.items())
    assert report.mttr_samples == samples
    assert list(report.uptime.items()) == list(uptime.items())


# --- marble ---------------------------------------------------------------------------

def test_marble_single_emission():
    out = render_marble([entry(0, "i", "emit", "s", 0, "t", 1)], bucket_ms=100,
                        graph=build_graph())
    lines = out.splitlines()
    assert lines[1].startswith("s ") or lines[1].startswith("s|") or "s" in lines[1]
    assert "|*|" in lines[1].replace(" ", "")


def test_marble_empty_timeline():
    out = render_marble([], bucket_ms=100, graph=build_graph())
    assert "no emissions" in out


def test_marble_buckets_and_counts():
    entries = [
        entry(0, "i", "emit", "s", 0, "t", 1),
        entry(50, "i", "emit", "s", 0, "t", 2),   # same bucket -> digit 2
        entry(250, "i", "emit", "s", 0, "t", 3),
    ]
    out = render_marble(entries, bucket_ms=100, graph=build_graph())
    row = next(line for line in out.splitlines() if line.startswith("s"))
    assert "|2.*|" in row.replace(" ", "")


def test_marble_multi_egress_rows_use_labels():
    graph = build_graph(make_spec("timing", "timing-check", {"expected": 1000}))
    entries = [
        entry(0, "i", "emit", "timing", 1, "t", "a"),
        entry(100, "i", "emit", "timing", 0, "t", "b"),
    ]
    out = render_marble(entries, bucket_ms=100, graph=graph, nodes=["timing"])
    assert "timing:tooFast" in out
    assert "timing:normal" in out
    assert "timing:tooSlow" in out  # silent class still gets a row


def test_marble_unknown_node_filter_errors():
    entries = [entry(0, "i", "emit", "s", 0, "t", 1)]
    try:
        render_marble(entries, bucket_ms=10, graph=build_graph(), nodes=["ghost"])
    except ValueError as exc:
        assert "ghost" in str(exc)
    else:
        raise AssertionError("expected ValueError")


@pytest.mark.parametrize("bucket", [0, -5])
def test_marble_bucket_below_1_is_a_value_error(bucket):
    with pytest.raises(ValueError, match="bucket_ms"):
        render_marble([entry(0, "i", "emit", "s", 0, "t", 1)], bucket_ms=bucket,
                      graph=build_graph())


def test_marble_bucket_giving_more_than_max_buckets_columns_is_a_value_error():
    last = [entry(MAX_BUCKETS - 1, "i", "emit", "s", 0, "t", 1)]
    assert f"buckets={MAX_BUCKETS}" in render_marble(last, bucket_ms=1, graph=build_graph())
    for time in (MAX_BUCKETS, 10**10):
        with pytest.raises(ValueError, match=f"gives {time + 1} columns, over {MAX_BUCKETS}"):
            render_marble([entry(time, "i", "emit", "s", 0, "t", 1)], bucket_ms=1,
                          graph=build_graph())


def test_marble_default_bucket_widens_to_at_most_max_buckets_columns():
    entries = [entry(t, "i", "emit", "s", 0, "t", 1) for t in (0, 4, 10**10)]
    header, row = render_marble(entries, graph=build_graph()).splitlines()
    assert default_bucket(entries, build_graph()) == 1
    assert header == f"# marble bucket_ms={10**10 // MAX_BUCKETS + 1} buckets={MAX_BUCKETS}"
    assert row == "s:0 |2" + "." * (MAX_BUCKETS - 2) + "*|"


def test_default_bucket_prefers_graph_periods():
    graph = build_graph(make_spec("s", "network-aware", {"period": 60000}))
    assert default_bucket([], graph) == 15000


def test_default_bucket_reads_timing_check_expected_as_a_period():
    graph = build_graph(make_spec("t", "timing-check", {"expected": 4000}))
    assert default_bucket([], graph) == 1000


def test_marble_does_not_read_the_voters_expected_count_as_a_period():
    graph = build_graph(
        make_spec("in", "mqtt-in", {"topic": "t"}, wires=[[("vote", 0)]]),
        make_spec("vote", "replication-voter", {"expected": 3, "window": 5000},
                  wires=[[("sink", 0)], [("sink", 0)]]),
        make_spec("sink", "debug"))
    assert default_bucket([], graph) == 1250
    entries = [entry(t, "i", "emit", "in", 0, "t", 1) for t in range(0, 60001, 1000)]
    out = render_marble(entries, graph=graph)
    assert out.splitlines()[0] == "# marble bucket_ms=1250 buckets=49"


def test_default_bucket_falls_back_to_observed_cadence():
    entries = [entry(t, "i", "emit", "s", 0, "t", 1) for t in (0, 400, 800)]
    assert default_bucket(entries, build_graph()) == 100
