"""The measuring loops behind run.py: end-to-end, traced per-layer, peak RSS.

Both loops repeat whole iterations until the run's time is up and report
medians. Every iteration goes through the behaviour gate first.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import pipeline
import workloads
from tracer import Tracer

UNTRACED_REFERENCE_ITERATIONS = 2
CHILD_TIMEOUT_S = 170

# Node kinds hosted by at least one workload; each gets a calls and a self_s metric.
NODE_METRIC_KINDS = ("mqtt-in", "heartbeat", "extract", "threshold-check", "compensate",
                     "checkpoint", "debug", "redundancy", "flow-control", "rbe",
                     "http-post", "readings-watcher")


class Checks:
    """Gate results counted against the checks attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            for e in errors:
                print(f"gate: {e}", file=sys.stderr)


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def environment(root: Path, wl: workloads.Workload, seconds: float, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
        "workload": wl.name,
        "seed": wl.seed,
        "params": wl.params,
        "run_seconds": seconds,
        "trace": trace,
    }


def check_fixtures(checks: Checks, pins: dict) -> None:
    for name in workloads.FIXTURE_PAIRS:
        text = pipeline.setup(workloads.fixture(name), None).run().to_csv()
        checks.add(gate.fixture_errors(name, text, pins))


def peak_rss_mb(run_py: Path, wl: workloads.Workload) -> float:
    """ru_maxrss of a fresh interpreter that runs exactly one iteration."""
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", wl.name, "--seed", str(wl.seed),
         "--seconds", "0", "--trace", "0", "--rss-probe"],
        cwd=run_py.parent.parent, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"rss probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def rss_probe(wl: workloads.Workload, workdir: Path) -> None:
    pipeline.run_iteration(wl, workdir, setup_repeats=1)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": kib / 1024}))


def _quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {"median": median, "p25": q[0], "p75": q[2], "n": len(values)}


def end_to_end(wl, workdir: Path, seconds: float, checks: Checks, pins: dict,
               record: dict) -> dict:
    samples: dict[str, list[float]] = {k: [] for k in
                                       ("setup_s", "sim_speedup", "csv_s", "report_s", "total_s")}
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        passes = pipeline.run_iteration(wl, workdir)
        checks.add(gate.iteration_errors(wl, passes, reference, pins))
        reference = reference or gate.normalised([p.outcome for p in passes])
        setup = sum(p.setup_s for p in passes)
        run = sum(p.run_s for p in passes)
        csv = sum(p.csv_s for p in passes)
        rep = sum(p.report_s for p in passes)
        samples["setup_s"].append(setup)
        samples["sim_speedup"].append(sum(p.simulated_s for p in passes) / run)
        samples["csv_s"].append(csv)
        samples["report_s"].append(rep)
        samples["total_s"].append(setup + run + csv + rep)
        del passes
        gc.collect()
        if time.perf_counter() >= deadline:
            break
    record["outcomes"] = reference
    record["samples"] = {name: _quartiles(v) for name, v in samples.items()}
    return {name: s["median"] for name, s in record["samples"].items()}


def layer_metrics(tr: Tracer, passes) -> dict:
    """Per-layer figures of one traced iteration."""
    at, cancel = tr.calls("core.clock.at"), tr.calls("core.clock.cancel")
    fork = "core.envelope.fork"
    m = {
        "core.clock.at.calls": at,
        "core.clock.cancel.calls": cancel,
        "core.clock.cancelled_share": cancel / at if at else 0.0,
        "core.clock.at.self_s": tr.self_s("core.clock.at"),
        "core.clock.run_until.self_s": tr.self_s("core.clock.run_until"),
        "core.clock.self_s": tr.self_s("core.clock.at", "core.clock.cancel",
                                       "core.clock.run_until"),
        "core.engine.emit_from.calls": tr.calls("core.engine.emit_from"),
        "core.engine.deliver_external.calls": tr.calls("core.engine.deliver_external"),
        "core.engine.dispatch.self_s": tr.self_s("core.engine.emit_from",
                                                 "core.engine.deliver_external",
                                                 "core.engine.set_node_timer"),
        "core.envelope.fork.calls": tr.calls(fork),
        "core.envelope.fork.copies": tr.counts.get(f"{fork}.copies", 0),
        "core.envelope.fork.self_s": tr.self_s(fork),
        "sim.world.publish.calls": tr.calls("sim.world.publish"),
        "sim.world.publish.self_s": tr.self_s("sim.world.publish"),
        "sim.world.sensor_value.calls": tr.calls("sim.world.sensor_value"),
        "cluster.send.calls": tr.calls("cluster.send"),
        "cluster.receive_datagram.calls": tr.calls("cluster.receive_datagram"),
        "cluster.receive_datagram.self_s": tr.self_s("cluster.receive_datagram"),
        "cluster.run_election.calls": tr.calls("cluster.run_election"),
        "cluster.role_changes": sum(p.role_changes for p in passes),
        "cluster.self_s": tr.self_s("cluster.send", "cluster.receive_datagram",
                                    "cluster.run_election", "cluster.decode_ping"),
        "core.timeline.add.calls": tr.calls("core.timeline.add"),
        "core.timeline.add.self_s": tr.self_s("core.timeline.add"),
        "core.timeline.csv_bytes": sum(p.csv_bytes for p in passes),
        "core.timeline.to_csv.self_s": tr.self_s("core.timeline.to_csv"),
        "core.timeline.from_csv.self_s": tr.self_s("core.timeline.from_csv"),
        "core.timeline.self_s": tr.self_s("core.timeline.add", "core.timeline.to_csv",
                                          "core.timeline.from_csv"),
        "report.compute_report.self_s": tr.self_s("report.compute_report"),
        "persistence.append.calls": tr.calls("persistence.append"),
        "persistence.append.self_s": tr.self_s("persistence.append"),
        "persistence.bytes_written": sum(p.store_bytes_written for p in passes),
        "persistence.load.self_s": tr.self_s("persistence.load"),
        "core.graph.parse.self_s": tr.self_s("core.graph.parse"),
        "sim.scenario.parse.self_s": tr.self_s("sim.scenario.parse"),
    }
    for kind in NODE_METRIC_KINDS:
        m[f"nodes.{kind}.calls"] = tr.calls(f"nodes.{kind}")
        m[f"nodes.{kind}.self_s"] = tr.self_s(f"nodes.{kind}")
    m["nodes.handlers.self_s"] = tr.self_s(*{n for _, n in tr.spans if n.startswith("nodes.")})
    return m


def per_layer(wl, workdir: Path, seconds: float, checks: Checks, pins: dict,
              record: dict) -> dict:
    reference = None
    untraced_run_s = []
    deadline = time.perf_counter() + seconds
    for _ in range(UNTRACED_REFERENCE_ITERATIONS):
        passes = pipeline.run_iteration(wl, workdir, setup_repeats=1)
        checks.add(gate.iteration_errors(wl, passes, reference, pins))
        reference = reference or gate.normalised([p.outcome for p in passes])
        untraced_run_s.append(sum(p.run_s for p in passes))
        del passes
        gc.collect()
    traced_run_s, samples = [], []
    tracer = Tracer()
    with tracer:
        while True:
            tracer.reset()
            passes = pipeline.run_iteration(wl, workdir, setup_repeats=1)
            # Compared with the untraced reference: tracing must not change behaviour.
            checks.add(gate.iteration_errors(wl, passes, reference, pins))
            traced_run_s.append(sum(p.run_s for p in passes))
            samples.append(layer_metrics(tracer, passes))
            del passes
            gc.collect()
            if time.perf_counter() >= deadline:
                break
    record["outcomes"] = reference
    record["spans"] = tracer.dump()
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    # After the tracer is gone: this builds a Store of its own.
    metrics["persistence.live_share"] = pipeline.store_live_share(workdir)
    metrics["trace.overhead_share"] = (statistics.median(traced_run_s)
                                       / statistics.median(untraced_run_s))
    return metrics
