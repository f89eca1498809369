"""Flow definition parsing and validation.

A flow document is UTF-8 JSON:

    {"nodes": [{"id": str, "type": str, "flow": str, "config": {...},
                "wires": [[["nodeId", ingressIdx], ...] per egress]}]}

parse_flow rejects structural problems (syntax, unknown kinds, duplicate
ids, dangling wires) outright; everything else comes back from
validate_graph as diagnostics so a caller can show all of them at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..nodes import NODE_KINDS
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


def parse_flow(text: str) -> FlowGraph:
    """Parse a flow document, filling config defaults from the node schemas."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FlowParseError(f"flow syntax error: {exc.msg} "
                             f"(line {exc.lineno}, column {exc.colno})") from exc

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
            raise FlowParseError(f"node id {raw['id']!r} holds a carriage return")
        ids.add(raw["id"])

    nodes = []
    for raw in raw_nodes:
        kind = raw.get("type")
        if kind not in NODE_KINDS:
            raise FlowParseError(f"unknown node kind {kind!r} (node {raw['id']!r})")
        config = dict(raw.get("config") or {})
        for name, param in NODE_KINDS[kind].CONFIG.items():
            if name not in config and param.has_default:
                config[name] = param.default
        wires = []
        for port_targets in raw.get("wires") or []:
            targets = []
            for t in port_targets:
                if not (isinstance(t, (list, tuple)) and len(t) == 2):
                    raise FlowParseError(
                        f"wire entries must be [nodeId, ingressIdx] pairs (node {raw['id']!r})")
                dst, ingress = t[0], t[1]
                if dst not in ids:
                    raise FlowParseError(f"dangling wire to unknown node {dst!r} (from {raw['id']!r})")
                if not isinstance(ingress, int) or ingress < 0:
                    raise FlowParseError(f"ingress index must be a non-negative integer (from {raw['id']!r})")
                targets.append((dst, ingress))
            wires.append(targets)
        nodes.append(NodeSpec(
            id=raw["id"],
            kind=kind,
            config=config,
            enabled=bool(raw.get("enabled", True)),
            flow=str(raw.get("flow", "main")),
            wires=wires,
        ))
    return FlowGraph(nodes)


def validate_graph(g: FlowGraph) -> list[Diagnostic]:
    """Full graph validation; an empty list means the graph is runnable."""
    diags: list[Diagnostic] = []

    for n in g.nodes:
        cls = NODE_KINDS.get(n.kind)
        if cls is None:
            diags.append(Diagnostic("error", n.id, f"unknown node kind {n.kind!r}"))
            continue
        for problem in cls.validate_config(n.config):
            diags.append(Diagnostic("error", n.id, problem))

    # Wire endpoints must exist and stay inside each node's declared ports.
    for src_id, port, dst_id, ingress in g.wires():
        locus = f"{src_id}[{port}] -> {dst_id}[{ingress}]"
        src = g.by_id.get(src_id)
        dst = g.by_id.get(dst_id)
        if dst is None:
            diags.append(Diagnostic("error", locus, f"wire targets unknown node {dst_id!r}"))
            continue
        src_cls = NODE_KINDS.get(src.kind) if src else None
        dst_cls = NODE_KINDS.get(dst.kind)
        if src_cls and port >= len(src_cls.egress_labels(src.config)):
            diags.append(Diagnostic("error", locus,
                                    f"egress {port} not declared by {src.kind!r}"))
        if dst_cls and ingress >= dst_cls.INGRESSES:
            diags.append(Diagnostic("error", locus,
                                    f"ingress {ingress} not declared by {dst.kind!r}"))

    diags.extend(_find_cycles(g))

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


def _find_cycles(g: FlowGraph) -> list[Diagnostic]:
    adjacency: dict[str, list[str]] = {n.id: [] for n in g.nodes}
    for src_id, _, dst_id, _ in g.wires():
        if src_id in adjacency and dst_id in adjacency:
            adjacency[src_id].append(dst_id)

    diags = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}

    def visit(start):
        stack = [(start, iter(adjacency[start]))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    loop = path[path.index(nxt):] + [nxt]
                    diags.append(Diagnostic("error", nxt, "cycle: " + " -> ".join(loop)))
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(adjacency[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()

    for node in adjacency:
        if color[node] == WHITE:
            visit(node)
    return diags

