"""One benchmark iteration: what `healflow run --out` then `healflow report` do.

The phases call the same public functions in the same order as the CLI:
parse_flow / validate_graph / parse_scenario -> Simulation(...) -> .run()
-> to_csv() and a file write -> read the file -> entries_from_csv ->
compute_report -> format_report for loss and mttr. Each function is looked
up on its module at call time, so the tracer's patches see these calls.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from healflow import persistence, report
from healflow.core import graph, timeline
from healflow.sim import runner, scenario

import calibrate
from workloads import Workload

SETUP_REPEATS = 3


@dataclass
class PassResult:
    """Timings and checked outputs of one `run` + `report` pass.

    The four times are in scaled seconds (calibrate.py), not raw wall time.
    """

    setup_s: float
    run_s: float
    csv_s: float
    report_s: float
    simulated_s: float
    outcome: dict        # what the gate pins: timeline digest and report figures
    times_sorted: bool
    world_emits: int     # counted on the in-memory timeline, before the CSV round trip
    parsed_entries: int  # entries read back from the CSV file
    csv_bytes: int
    role_changes: int
    store_bytes_written: int


def setup(wl: Workload, store_dir: Optional[Path]):
    graphs = []
    for text in wl.flows:
        g = graph.parse_flow(text)
        errors = [str(d) for d in graph.validate_graph(g) if d.severity == "error"]
        if errors:
            raise ValueError(f"{wl.name}: generated flow is invalid: {errors}")
        graphs.append(g)
    script = scenario.parse_scenario(wl.scenario)
    return runner.Simulation(graphs, script,
                             store_dir=str(store_dir) if store_dir is not None else None)


def _store_bytes(store_dir: Optional[Path]) -> int:
    if store_dir is None or not store_dir.exists():
        return 0
    return sum(p.stat().st_size for p in store_dir.glob("*.store"))


def run_pass(wl: Workload, workdir: Path, store_dir: Optional[Path],
             setup_repeats: int = SETUP_REPEATS) -> PassResult:
    """One pass; every phase time is scaled by the yardstick (calibrate.py)."""
    stick = calibrate.Yardstick()
    setup_samples = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        sim = setup(wl, store_dir)
        setup_samples.append(stick.scale(time.perf_counter() - t0))
    store_before = _store_bytes(store_dir)

    t0 = time.perf_counter()
    log = sim.run()
    run_s = stick.scale(time.perf_counter() - t0)
    t0 = time.perf_counter()
    text = log.to_csv()
    out = workdir / "timeline.csv"
    out.write_text(text, encoding="utf-8")
    csv_s = stick.scale(time.perf_counter() - t0)
    t0 = time.perf_counter()
    entries = timeline.entries_from_csv(out.read_text(encoding="utf-8"))
    rep = report.compute_report(entries)
    loss_text = report.format_report(rep, "loss")
    mttr_text = report.format_report(rep, "mttr")
    report_s = stick.scale(time.perf_counter() - t0)

    data = text.encode("utf-8")
    outcome = {
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "entries": len(log.entries),
        "expected": rep.expected,
        "delivered": rep.delivered,
        "loss": {sink: rep.loss(sink) for sink in sorted(rep.delivered)},
        "mttr_ms": rep.mttr_samples,
        "uptime_ms": rep.uptime,
        "report_sha256": hashlib.sha256((loss_text + mttr_text).encode("utf-8")).hexdigest(),
    }
    return PassResult(
        setup_s=statistics.median(setup_samples), run_s=run_s, csv_s=csv_s,
        report_s=report_s, simulated_s=sim.script.duration / 1000, outcome=outcome,
        times_sorted=all(a.time <= b.time for a, b in zip(entries, entries[1:])),
        world_emits=sum(1 for e in log.entries if e.instance == "world" and e.kind == "emit"),
        parsed_entries=len(entries), csv_bytes=len(data),
        role_changes=sum(1 for e in log.entries if e.kind == "role-change"),
        store_bytes_written=_store_bytes(store_dir) - store_before)


def run_iteration(wl: Workload, workdir: Path,
                  setup_repeats: int = SETUP_REPEATS) -> list[PassResult]:
    """Every pass of the workload; passes after the first reuse the store dir."""
    store_dir = workdir / "store" if wl.uses_disk else None
    if store_dir is not None and store_dir.exists():
        shutil.rmtree(store_dir)
    return [run_pass(wl, workdir, store_dir, setup_repeats) for _ in range(wl.passes)]


def store_live_share(workdir: Path) -> float:
    """Live records over lines in the store files, via Store.compact on copies.

    Zero when the workload keeps its store in memory.
    """
    store_dir = workdir / "store"
    files = sorted(store_dir.glob("*.store")) if store_dir.exists() else []
    lines = live = 0
    for path in files:
        copy = workdir / "compacted.store"
        shutil.copyfile(path, copy)
        with path.open(encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
        persistence.Store(copy).compact()
        with copy.open(encoding="utf-8") as fh:
            live += sum(1 for _ in fh)
        copy.unlink()
    return live / lines if lines else 0.0
