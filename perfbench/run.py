"""healflow benchmark: time `healflow run --out` + `healflow report` on a workload.

    python3 perfbench/run.py --workload sensor_fanout --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload's documents are generated from
--seed; iterations of the whole run -> CSV -> report sequence repeat until
--seconds have passed, and every metric is the median over them. Phase
times are scaled by a host-speed reference probed beside each phase
(calibrate.py). Every iteration's output goes through the behaviour gate
(gate.py).

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a separate traced run (tracer.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A fuller record, with the environment, quartiles, outcomes and spans, goes
to .perfbench_work/results/. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _import_program() -> None:
    """Put this checkout's src/ first on the path and make sure it is what loads."""
    if not (SRC / "healflow" / "__init__.py").is_file():
        sys.exit(f"error: no healflow sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import healflow
    if Path(healflow.__file__).resolve().parent != SRC / "healflow":
        sys.exit(f"error: imported healflow from {healflow.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import gate
    import measure
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = workloads.generate(args.workload, args.seed)
    workdir = WORK / f"{wl.name}-{wl.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.rss_probe:
            measure.rss_probe(wl, workdir)
            return 0
        pins = gate.load_pins()
        checks = measure.Checks()
        measure.check_fixtures(checks, pins)
        record = {"environment": measure.environment(ROOT, wl, args.seconds, args.trace)}
        if args.trace:
            values = measure.per_layer(wl, workdir, args.seconds, checks, pins, record)
        else:
            values = measure.end_to_end(wl, workdir, args.seconds, checks, pins, record)
            values["peak_rss_mb"] = measure.peak_rss_mb(HERE / "run.py", wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record.update(result, errors=checks.errors,
                  outcome_digest=gate.outcome_digest(record["outcomes"]))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    spread = record.get("samples", {})
    for name, m in metrics.items():
        s = spread.get(name)
        extra = f"  [p25 {s['p25']:.6g}, p75 {s['p75']:.6g}, n={s['n']}]" if s else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{extra}")
    for i, o in enumerate(record["outcomes"]):
        print(f"pass {i}: timeline sha256 {o['csv_sha256']} ({o['entries']} entries)")
    print(f"outcome digest {record['outcome_digest']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
