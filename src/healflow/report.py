"""Run reports: delivery/loss counts, MTTR samples, marble diagrams.

Everything here is a pure function of a timeline, so reports can be
recomputed from a CSV file at any point after a run. `compute_report` is
one fold over the entries in timeline order: it reads each entry once and
never holds the timeline, so any iterable of entries will do.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core.envelope import encode_json
from .core.graph import FlowGraph
from .core.timeline import SINK_TOPIC_PREFIX, WORLD_INSTANCE, TimelineEntry
from .nodes import NODE_KINDS


@dataclass
class RunReport:
    delivered: dict = field(default_factory=dict)   # sink topic -> count
    expected: dict = field(default_factory=dict)    # world source node -> count
    mttr_samples: list = field(default_factory=list)
    uptime: dict = field(default_factory=dict)      # instance -> ms

    @property
    def expected_total(self) -> int:
        return sum(self.expected.values())

    def loss(self, sink: str) -> int:
        return self.expected_total - self.delivered.get(sink, 0)


def compute_report(entries: Iterable[TimelineEntry]) -> RunReport:
    """Fold a timeline into its report in one pass.

    - expected: world emits per source node;
    - delivered: emits per sink topic;
    - mttr_samples: one per failover, from the crash of the current master
      to the first sink emit by an instance other than the crashed one;
    - uptime: per instance that logged an entry, the time up to the last
      entry minus its crash windows (a crash opens one, a restart closes it).
    """
    report = RunReport()
    expected, delivered, samples = report.expected, report.delivered, report.mttr_samples
    instances: set[str] = set()
    down_since: dict[str, int] = {}   # instance -> time of its open crash
    downtime: dict[str, int] = {}     # instance -> ms in closed crash windows
    master: Optional[str] = None
    crash_at: Optional[int] = None
    crashed: Optional[str] = None
    now = 0   # the current entry's time; after the loop, the last one's
    for e in entries:
        now = e.time
        instances.add(e.instance)
        kind = e.kind
        if kind == "emit":
            if e.instance == WORLD_INSTANCE:
                expected[e.node] = expected.get(e.node, 0) + 1
            if e.topic.startswith(SINK_TOPIC_PREFIX):
                delivered[e.topic] = delivered.get(e.topic, 0) + 1
                if crash_at is not None and e.instance not in (crashed, WORLD_INSTANCE):
                    samples.append(now - crash_at)
                    crash_at = crashed = None
        elif kind == "role-change" and isinstance(e.value, dict):
            if e.value.get("role") == "master":
                master = e.instance
        elif kind == "fault" and isinstance(e.value, dict):
            fault = e.value.get("kind")
            if fault == "instance_crash":
                if e.node == master:
                    crash_at, crashed = now, e.node
                down_since.setdefault(e.node, now)
            elif fault == "instance_restart" and e.node in down_since:
                downtime[e.node] = downtime.get(e.node, 0) + now - down_since.pop(e.node)
    instances.discard(WORLD_INSTANCE)
    # Up time is the end less the closed windows; an open window ends it early.
    for name in sorted(instances):
        report.uptime[name] = down_since.get(name, now) - downtime.get(name, 0)
    return report


def _shown(name: str) -> str:
    """name on one line: as it is when printable ASCII without a '"', else its JSON string."""
    return name if name.isascii() and name.isprintable() and '"' not in name else encode_json(name)


def format_report(report: RunReport, metric: str, sink: Optional[str] = None) -> str:
    """Human-readable text for one metric; 'n/a' when nothing applies."""
    lines = []
    if metric == "mttr":
        samples = report.mttr_samples
        if not samples:
            lines.append("mttr: n/a (no master failover observed)")
        else:
            mean = statistics.fmean(samples)
            stdev = statistics.pstdev(samples)
            lines.append("mttr samples (ms): " + ", ".join(str(s) for s in samples))
            lines.append(f"mttr mean={mean:.1f} ms stdev={stdev:.1f} ms n={len(samples)}")
    elif metric == "loss":
        sinks = sorted(report.delivered)
        if sink is not None:
            key = sink if sink.startswith(SINK_TOPIC_PREFIX) else SINK_TOPIC_PREFIX + sink
            sinks = [key]
        if not report.expected or not sinks:
            lines.append("loss: n/a (no periodic source or sink deliveries)")
        else:
            for name, count in sorted(report.expected.items()):
                lines.append(f"source {_shown(name)}: emitted={count}")
            for key in sinks:
                delivered = report.delivered.get(key, 0)
                lines.append(f"sink {_shown(key)}: delivered={delivered} "
                             f"expected={report.expected_total} loss={report.loss(key)}")
    else:
        raise ValueError(f"unknown metric {metric!r}")
    for name, ms in sorted(report.uptime.items()):
        lines.append(f"uptime {_shown(name)}: {ms} ms")
    return "\n".join(lines) + "\n"


# --- marble rendering -----------------------------------------------------------

def _egress_label(graph: FlowGraph, node: str, port: Optional[int]) -> str:
    """The marble row label of a node's egress, on one line."""
    port = port or 0
    label = f"{node}:{port}"
    if node in graph.by_id:
        spec = graph.by_id[node]
        labels = NODE_KINDS[spec.kind].egress_labels(spec.config)
        if len(labels) <= 1:
            label = node
        elif port < len(labels):
            label = f"{node}:{labels[port]}"
    return _shown(label)


def default_bucket(emits, graph: FlowGraph) -> int:
    """A quarter of the fastest configured cadence, or of the one observed in emit entries."""
    periods = []
    for spec in graph.nodes:
        # Only timing-check's expected is a period; the voter's is a value count.
        keys = ("period", "interval", "window") + (
            ("expected",) if spec.kind == "timing-check" else ())
        for key in keys:
            value = spec.config.get(key)
            if isinstance(value, int) and value > 0:
                periods.append(value)
    if not periods:
        by_node: dict[str, int] = {}
        for e in emits:
            if e.node in by_node and e.time > by_node[e.node]:
                periods.append(e.time - by_node[e.node])
            by_node[e.node] = e.time
    return max(1, min(periods) // 4) if periods else 1000


MAX_BUCKETS = 100_000  # marble columns: a default bucket widens to fit, a finer explicit one fails


def render_marble(entries: Iterable[TimelineEntry], *, bucket_ms: Optional[int] = None,
                  graph: FlowGraph, nodes: Optional[list[str]] = None) -> str:
    """Text marble diagram: one row per (node, egress), one column per bucket.

    Glyphs: '.' nothing, '*' one emission, '2'..'9' that many, '+' ten or more.
    """
    emits = [e for e in entries if e.kind == "emit"]
    widen = bucket_ms is None
    if widen:
        bucket_ms = default_bucket(emits, graph)
    elif bucket_ms < 1:
        raise ValueError(f"bucket_ms must be at least 1, got {bucket_ms}")
    if nodes is not None:
        known = {e.node for e in emits} | set(graph.by_id)
        for n in nodes:
            if n not in known:
                raise ValueError(f"unknown node in filter: {n!r}")
        emits = [e for e in emits if e.node in nodes]

    if not emits:
        return f"# marble bucket_ms={bucket_ms} (no emissions)\n"

    t_end = max(e.time for e in emits)
    if widen:
        bucket_ms = max(bucket_ms, t_end // MAX_BUCKETS + 1)
    n_buckets = t_end // bucket_ms + 1
    if n_buckets > MAX_BUCKETS:
        raise ValueError(f"bucket_ms {bucket_ms} gives {n_buckets} columns, over {MAX_BUCKETS}")

    rows: dict[str, list[int]] = {}
    if nodes is not None:
        # Pre-create every egress row of the filtered nodes so silent
        # classes still show as empty tracks.
        for name in nodes:
            spec = graph.by_id.get(name)
            if spec is None:
                continue
            labels = NODE_KINDS[spec.kind].egress_labels(spec.config)
            for port in range(len(labels) or 1):
                rows.setdefault(_egress_label(graph, name, port), [0] * n_buckets)
    for e in emits:
        label = _egress_label(graph, e.node, e.port)
        row = rows.setdefault(label, [0] * n_buckets)
        row[e.time // bucket_ms] += 1

    width = max(len(label) for label in rows)
    lines = [f"# marble bucket_ms={bucket_ms} buckets={n_buckets}"]
    for label, counts in rows.items():
        glyphs = "".join(
            "." if c == 0 else "*" if c == 1 else str(c) if c < 10 else "+"
            for c in counts)
        lines.append(f"{label.ljust(width)} |{glyphs}|")
    return "\n".join(lines) + "\n"
