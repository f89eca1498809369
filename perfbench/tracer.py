"""Spans around the public functions of each healflow layer, from outside.

The tracer patches class attributes and module-level functions for the
length of a traced run and restores them afterwards; nothing under src/
knows it exists. Spans are aggregated in memory per (parent, name) edge:
calls, total time and self time, where self time is a span's duration minus
the part of it its wrapped children cover. They are written out once, at
the end of the run.

Install before any Simulation is built: ClusterAgent captures the bound
`receive_datagram` at construction, so a later patch would miss it.
"""

from __future__ import annotations

import functools
import inspect
import time
from pathlib import Path

from healflow import cluster, persistence, report
from healflow.core import clock, engine, envelope, graph, timeline
from healflow.nodes import NODE_KINDS
from healflow.sim import scenario, world

NODE_HOOKS = ("on_input", "on_timer", "on_external", "on_start")

APPEND_METHODS = ("store_checkpoint", "clear_checkpoint", "registry_upsert",
                  "registry_mark_lost")


def _disk_backed(store, *args, **kwargs) -> bool:
    return store.path is not None


def _reloads(store, path=None) -> bool:
    return path is not None and Path(path).exists()


def _copies(env) -> bool:
    return isinstance(env.payload, (dict, list))


def targets():
    """(owner, attribute, span name, options) for every patched callable."""
    out = [
        (clock.VirtualClock, "at", "core.clock.at", {}),
        (clock.VirtualClock, "cancel", "core.clock.cancel", {}),
        (clock.VirtualClock, "run_until", "core.clock.run_until", {}),
        (engine.Engine, "emit_from", "core.engine.emit_from", {}),
        (engine.Engine, "deliver_external", "core.engine.deliver_external", {}),
        (engine.Engine, "set_node_timer", "core.engine.set_node_timer", {}),
        (envelope.Envelope, "fork", "core.envelope.fork", {"count": ("copies", _copies)}),
        (world.World, "publish", "sim.world.publish", {}),
        (world.World, "sensor_value", "sim.world.sensor_value", {}),
        (cluster.LoopbackTransport, "send", "cluster.send", {}),
        (cluster.ClusterAgent, "receive_datagram", "cluster.receive_datagram", {}),
        (cluster.ClusterAgent, "run_election", "cluster.run_election", {}),
        (cluster, "decode_ping", "cluster.decode_ping", {}),
        (timeline.TimelineLog, "add", "core.timeline.add", {}),
        (timeline.TimelineLog, "to_csv", "core.timeline.to_csv", {}),
        (timeline, "entries_from_csv", "core.timeline.from_csv", {}),
        (report, "compute_report", "report.compute_report", {}),
        (report, "format_report", "report.format_report", {}),
        (persistence.Store, "__init__", "persistence.load", {"when": _reloads}),
        (graph, "parse_flow", "core.graph.parse", {}),
        (graph, "validate_graph", "core.graph.validate", {}),
        (scenario, "parse_scenario", "sim.scenario.parse", {}),
    ]
    out += [(persistence.Store, name, "persistence.append", {"when": _disk_backed})
            for name in APPEND_METHODS]
    out += [(cls, hook, f"nodes.{kind}", {})
            for kind, cls in sorted(NODE_KINDS.items()) for hook in NODE_HOOKS]
    return out


class Tracer:
    """Patches the layer boundaries and aggregates spans while installed."""

    def __init__(self):
        self.spans: dict[tuple, list] = {}    # (parent, name) -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}      # "<span>.<counter>" -> count
        self._stack: list[list] = [[None, 0]]  # frames of [span name, child ns]
        self._saved: list[tuple] = []          # (owner, attribute, own value or None)

    # --- spans -------------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def calls(self, name: str) -> int:
        return sum(s[0] for (_, n), s in self.spans.items() if n == name)

    def self_s(self, *names: str) -> float:
        return sum(s[2] for (_, n), s in self.spans.items() if n in names) / 1e9

    def dump(self) -> list[dict]:
        return [{"parent": parent, "name": name, "calls": s[0],
                 "total_s": s[1] / 1e9, "self_s": s[2] / 1e9}
                for (parent, name), s in sorted(self.spans.items(), key=lambda kv: -kv[1][2])]

    def _wrap(self, name, fn, when=None, count=None):
        stack, spans, counts, now = self._stack, self.spans, self.counts, time.perf_counter_ns
        counter = f"{name}.{count[0]}" if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            if count is not None and count[1](*args, **kwargs):
                counts[counter] = counts.get(counter, 0) + 1
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                parent[1] += elapsed
                span = spans.get((parent[0], name))
                if span is None:
                    spans[(parent[0], name)] = [1, elapsed, elapsed - frame[1]]
                else:
                    span[0] += 1
                    span[1] += elapsed
                    span[2] += elapsed - frame[1]
        return traced

    # --- patching -----------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # Resolve every original first, so a subclass never picks up a wrapper
        # its base class just received.
        resolved = [(owner, attr, name, opts, inspect.getattr_static(owner, attr))
                    for owner, attr, name, opts in targets()]
        try:
            for owner, attr, name, opts, raw in resolved:
                self._saved.append((owner, attr, vars(owner).get(attr)))
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__, **opts))
                else:
                    patched = self._wrap(name, raw, **opts)
                setattr(owner, attr, patched)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
