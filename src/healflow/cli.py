"""Command-line entry point: validate flows, run scenarios, render reports.

Each input is checked once, where it is read: a flow file by _load_flow, a
scenario by parse_scenario; the Simulation and its engines trust both.

Exit codes: 0 ok, 2 validation error (bad files, bad graphs, bad scripts),
3 runtime I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.graph import Diagnostic, FlowGraph, FlowParseError, parse_flow, validate_graph
from .core.timeline import entries_from_csv
from .report import compute_report, format_report, render_marble
from .sim.runner import Simulation
from .sim.scenario import ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _read(path: str, newline=None) -> str:
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def _load_flow(path: str) -> tuple[FlowGraph, list[Diagnostic]]:
    """Read, parse and validate one flow file; a file that does not parse raises _CliError."""
    try:
        graph = parse_flow(_read(path))
    except FlowParseError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    return graph, validate_graph(graph)


def _cmd_validate(args) -> int:
    failed = False
    for path in args.flow:
        try:
            graph, diags = _load_flow(path)
        except _CliError as exc:
            print(exc)
            failed = True
            continue
        for d in diags:
            print(f"{path}: {d}")
        if any(d.severity == "error" for d in diags):
            failed = True
        else:
            print(f"{path}: ok ({len(graph.nodes)} nodes, {len(graph.wires())} wires)")
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_run(args) -> int:
    if args.bucket_ms is not None and args.bucket_ms < 1:
        raise _CliError(f"--bucket-ms must be at least 1, got {args.bucket_ms}")
    if args.seed is not None and args.seed < 0:
        raise _CliError(f"--seed must be at least 0, got {args.seed}")
    graphs = []
    for path in args.flow:
        graph, diags = _load_flow(path)
        errors = [d for d in diags if d.severity == "error"]
        if errors:
            raise _CliError("\n  ".join([f"{path}: invalid flow", *map(str, errors)]))
        graphs.append(graph)
    try:
        script = parse_scenario(_read(args.scenario))
        sim = Simulation(graphs, script, seed=args.seed, store_dir=args.store_dir)
        log = sim.run()
    except ScenarioError as exc:
        raise _CliError(f"{args.scenario}: {exc}") from exc

    if args.format == "marble":
        merged = FlowGraph([n for g in graphs for n in g.nodes])
        try:
            output = render_marble(log.entries, bucket_ms=args.bucket_ms, graph=merged,
                                   nodes=args.nodes)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    else:
        output = log.to_csv()

    if args.out:
        try:
            Path(args.out).write_text(output, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc
        print(f"wrote {args.out} ({len(log)} timeline entries)")
    else:
        sys.stdout.write(output)
    return EXIT_OK


def _cmd_report(args) -> int:
    text = _read(args.timeline, newline="")
    try:
        entries = entries_from_csv(text)
    except ValueError as exc:
        raise _CliError(f"{args.timeline}: not a timeline CSV: {exc}") from exc
    report = compute_report(entries)
    sys.stdout.write(format_report(report, args.metric, sink=args.sink))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="healflow",
        description="Self-healing dataflow runtime and fault-injection simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="co-simulate flows against a scenario script")
    run_p.add_argument("--flow", action="append", required=True,
                       help="flow document; repeat to assign one per instance, in order")
    run_p.add_argument("--scenario", required=True, help="scenario script (JSON)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--out", help="write the timeline/diagram here instead of stdout")
    run_p.add_argument("--format", choices=("csv", "marble"), default="csv")
    run_p.add_argument("--nodes", action="append",
                       help="node to show in marble output; repeat to show several")
    run_p.add_argument("--bucket-ms", type=int, default=None,
                       help="marble column width (default: fastest period / 4)")
    run_p.add_argument("--store-dir", help="directory for per-instance persistence files")
    run_p.set_defaults(fn=_cmd_run)

    val_p = sub.add_parser("validate", help="parse and validate flow documents")
    val_p.add_argument("--flow", action="append", required=True)
    val_p.set_defaults(fn=_cmd_validate)

    rep_p = sub.add_parser("report", help="compute metrics from a timeline CSV")
    rep_p.add_argument("--timeline", required=True)
    rep_p.add_argument("--metric", choices=("mttr", "loss"), required=True)
    rep_p.add_argument("--sink", help="restrict the loss report to one sink id")
    rep_p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
