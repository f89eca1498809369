"""Flow definition parsing and validation.

A flow document is UTF-8 JSON:

    {"nodes": [{"id": str, "type": str, "flow": str, "enabled": bool, "config": {...},
                "wires": [[["nodeId", ingressIdx], ...] per egress]}]}

parse_flow owns structure: it rejects syntax errors, unknown or non-string
kinds, duplicate ids, dangling or ill-typed wires, a non-bool enabled and a
non-string flow outright, and sets each absent or null config field to its
default.
validate_graph checks only meaning (configs, port ranges, cycles, flow-group
flags, redundancy count) and returns diagnostics, so a caller can show all
at once. Both run once, where a flow is loaded; Engine trusts the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from ..nodes import NODE_KINDS
from .envelope import decode_document
from .timeline import csv_safe


class FlowParseError(ValueError):
    pass


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    locus: str     # node id or wire description
    message: str

    def __str__(self):
        return f"{self.severity}: {self.locus}: {self.message}"


@dataclass
class NodeSpec:
    id: str
    kind: str
    config: dict = field(default_factory=dict)
    enabled: bool = True
    flow: str = "main"
    # one list of (target id, ingress index) pairs per egress
    wires: list = field(default_factory=list)


class FlowGraph:
    """Parsed node/wire topology with per-node configuration."""

    def __init__(self, nodes: list[NodeSpec]):
        self.nodes = nodes
        self.by_id = {n.id: n for n in nodes}

    def wires(self) -> list[tuple[str, int, str, int]]:
        """Every wire as (source id, egress, target id, ingress), in declaration order."""
        return [(n.id, port, dst, ingress)
                for n in self.nodes
                for port, targets in enumerate(n.wires)
                for dst, ingress in targets]

    def flow_groups(self) -> dict[str, bool]:
        """Initial enabled flag per flow-group (all members must agree)."""
        groups: dict[str, bool] = {}
        for n in self.nodes:
            groups[n.flow] = groups.get(n.flow, True) and n.enabled
        return groups


def fill_defaults(kind: str, config: dict) -> dict:
    """A copy of config with each schema default set where its key is absent or null."""
    return {**config, **{name: p.default for name, p in NODE_KINDS[kind].CONFIG.items()
                         if p.has_default and config.get(name) is None}}


def parse_flow(text: str) -> FlowGraph:
    """Parse a flow document, filling config defaults from the node schemas."""
    doc = decode_document(text, "flow", FlowParseError)
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise FlowParseError('flow document must be an object with a "nodes" list')

    raw_nodes = doc["nodes"]
    ids = set()
    for raw in raw_nodes:
        if not isinstance(raw, dict) or not isinstance(raw.get("id"), str) or not raw["id"]:
            raise FlowParseError("every node needs a non-empty string id")
        if raw["id"] in ids:
            raise FlowParseError(f"duplicate node id {raw['id']!r}")
        if not csv_safe(raw["id"]):
            raise FlowParseError(f"node id {raw['id']!r} holds a NUL")
        ids.add(raw["id"])

    nodes = []
    for raw in raw_nodes:
        kind = raw.get("type")
        if not isinstance(kind, str) or kind not in NODE_KINDS:
            raise FlowParseError(f"unknown node kind {kind!r} (node {raw['id']!r})")
        config, raw_wires = raw.get("config", {}), raw.get("wires", [])
        if not isinstance(config, dict):
            raise FlowParseError(f"config must be an object, got {config!r} (node {raw['id']!r})")
        if not isinstance(raw_wires, list):
            raise FlowParseError(f"wires must be a list, got {raw_wires!r} (node {raw['id']!r})")
        config = fill_defaults(kind, config)
        wires = []
        for port_targets in raw_wires:
            if not isinstance(port_targets, list):
                raise FlowParseError(
                    f"each port's wires must be a list, got {port_targets!r} (node {raw['id']!r})")
            targets = []
            for t in port_targets:
                if not (isinstance(t, (list, tuple)) and len(t) == 2):
                    raise FlowParseError(
                        f"wire entries must be [nodeId, ingressIdx] pairs (node {raw['id']!r})")
                dst, ingress = t[0], t[1]
                if not isinstance(dst, str):
                    raise FlowParseError(
                        f"wire target must be a node id, got {dst!r} (node {raw['id']!r})")
                if dst not in ids:
                    raise FlowParseError(
                        f"dangling wire to unknown node {dst!r} (node {raw['id']!r})")
                if type(ingress) is not int or ingress < 0:
                    raise FlowParseError(f"ingress index must be a non-negative integer, "
                                         f"got {ingress!r} (node {raw['id']!r})")
                targets.append((dst, ingress))
            wires.append(targets)
        enabled, flow = raw.get("enabled", True), raw.get("flow", "main")
        if not isinstance(enabled, bool):
            raise FlowParseError(
                f"enabled must be true or false, got {enabled!r} (node {raw['id']!r})")
        if not isinstance(flow, str):
            raise FlowParseError(f"flow must be a string, got {flow!r} (node {raw['id']!r})")
        nodes.append(NodeSpec(id=raw["id"], kind=kind, config=config,
                              enabled=enabled, flow=flow, wires=wires))
    return FlowGraph(nodes)


def validate_graph(g: FlowGraph) -> list[Diagnostic]:
    """Check what a parsed graph means; an empty list means the graph is runnable.

    g must be as parse_flow builds it: known kinds, unique ids, every wire
    to a node in g. A flow with cycles gets one cycle diagnostic.
    """
    diags = [Diagnostic("error", n.id, problem)
             for n in g.nodes for problem in NODE_KINDS[n.kind].validate_config(n.config)]

    # Wires must stay inside each node's declared ports; their sources feed the cycle check.
    predecessors: dict[str, list[str]] = {n.id: [] for n in g.nodes}
    for src_id, port, dst_id, ingress in g.wires():
        predecessors[dst_id].append(src_id)
        locus = f"{src_id}[{port}] -> {dst_id}[{ingress}]"
        src, dst = g.by_id[src_id], g.by_id[dst_id]
        if port >= len(NODE_KINDS[src.kind].egress_labels(src.config)):
            diags.append(Diagnostic("error", locus,
                                    f"egress {port} not declared by {src.kind!r}"))
        if ingress >= NODE_KINDS[dst.kind].INGRESSES:
            diags.append(Diagnostic("error", locus,
                                    f"ingress {ingress} not declared by {dst.kind!r}"))

    try:
        TopologicalSorter(predecessors).prepare()
    except CycleError as exc:
        loop = exc.args[1]
        diags.append(Diagnostic("error", loop[0], "cycle: " + " -> ".join(loop)))

    # Mixed enabled flags inside one flow-group are almost always an authoring slip.
    members: dict[str, set[bool]] = {}
    for n in g.nodes:
        members.setdefault(n.flow, set()).add(n.enabled)
    for flow, flags in members.items():
        if len(flags) > 1:
            diags.append(Diagnostic("warning", flow,
                                    "flow-group mixes enabled and disabled nodes; "
                                    "the group starts disabled"))

    reds = [n.id for n in g.nodes if n.kind == "redundancy"]
    if len(reds) > 1:
        diags.append(Diagnostic("warning", reds[1],
                                "multiple redundancy nodes; the first one drives the cluster"))
    return diags
