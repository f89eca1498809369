"""Golden timelines: the full SHA-256 of to_csv() for each fixture flow/scenario pair,
and the loss and MTTR report text of each; and the golden store file of a pair
run twice over one store directory.

A change that moves any fixture timeline by even one byte fails these pins. A
change that alters behaviour on purpose updates them and says so. This module
needs only the standard library and healflow, so that test_golden.py checks the
pins under pytest and cross_python.py under any supported interpreter.
"""

import hashlib
import tempfile
from pathlib import Path

from healflow.core.graph import parse_flow
from healflow.report import compute_report, format_report
from healflow.sim.runner import Simulation
from healflow.sim.scenario import parse_scenario

DATA = Path(__file__).parent / "data"

# (flow document per instance, scenario document, sha256 of the timeline CSV)
GOLDEN = {
    "flow_a+scenario_a": (
        ("flow_a.json",), "scenario_a.json",
        "18de06231e5bc8516cbfc5db9b40203d0ed7901bc3566af9b28f32750853352f"),
    "flow_b+scenario_b": (
        ("flow_b.json",), "scenario_b.json",
        "37b9ba2741756bb5ef062e5df69d1133e5f05bbf60ee1260ac1098cb1b966c37"),
    "flow_c*2+scenario_c_loss": (
        ("flow_c.json", "flow_c.json"), "scenario_c_loss.json",
        "bbf99842b2d6b6b89344a2ab68e903df5bff9d03db8072093762c77d9146399e"),
    # Four node ids, each holding one of ',', '"', "\n" and "\r", and a device,
    # its topic, a service and an instance whose names hold all four.
    "flow_names+scenario_names": (
        ("flow_names.json",), "scenario_names.json",
        "748ae2f97f3fa7deec25806b3a7578a93cd4d704fa8e5b5aa839fc2b8a298fd3"),
}

# format_report(..., "loss") + format_report(..., "mttr") for each pair
REPORTS = {
    "flow_a+scenario_a":
        "loss: n/a (no periodic source or sink deliveries)\n"
        "uptime instance-0: 1080000 ms\n"
        "mttr: n/a (no master failover observed)\n"
        "uptime instance-0: 1080000 ms\n",
    "flow_b+scenario_b":
        "source nfc-1: emitted=5\n"
        "sink service/validator-1: delivered=3 expected=5 loss=2\n"
        "sink service/validator-2: delivered=1 expected=5 loss=4\n"
        "sink service/validator-3: delivered=1 expected=5 loss=4\n"
        "uptime instance-0: 18000 ms\n"
        "mttr: n/a (no master failover observed)\n"
        "uptime instance-0: 18000 ms\n",
    "flow_c*2+scenario_c_loss":
        "source dht-1: emitted=22\n"
        "sink service/notify: delivered=2 expected=22 loss=20\n"
        "sink service/telemetry: delivered=21 expected=22 loss=1\n"
        "uptime red-a: 1320000 ms\n"
        "uptime red-b: 290000 ms\n"
        "mttr samples (ms): 13001\n"
        "mttr mean=13001.0 ms stdev=0.0 ms n=1\n"
        "uptime red-a: 1320000 ms\n"
        "uptime red-b: 290000 ms\n",
    "flow_names+scenario_names":
        'source "dht,\\"\\r\\n": emitted=10\n'
        'sink "service/sink,\\"\\n\\r": delivered=8 expected=10 loss=2\n'
        'uptime "edge,\\"\\n\\r": 600000 ms\n'
        "mttr: n/a (no master failover observed)\n"
        'uptime "edge,\\"\\n\\r": 600000 ms\n',
}

# flow_a+scenario_a run twice over one store directory: the SHA-256 of
# instance-0.store after the first run (38 lines) and after the second (78
# lines), and of the second run's timeline CSV, which replays the first's
# checkpoints after its restarts.
STORE_PINS = (
    "f26bb90ebbe41d7d049ddf05c535626735e47a2fa82f34bb72498137ca92644c",
    "a21cfd1d1d562684740d51b6ba5aab3c7ea5550476987b678cd1e365574010de",
    "e076d7edca33ee290746df2d78812ab1a8575c2f6a089cc068e455cb017ceb49",
)


def run_fixture(name, store_dir=None):
    """The timeline of the named pair, its stores in store_dir if one is given."""
    flows, scenario, _ = GOLDEN[name]
    graphs = [parse_flow((DATA / f).read_text()) for f in flows]
    script = parse_scenario((DATA / scenario).read_text())
    return Simulation(graphs, script, store_dir=store_dir).run()


def observed(name):
    """The SHA-256 of the named pair's timeline CSV, and its report text as REPORTS holds it."""
    log = run_fixture(name)
    report = compute_report(log)
    return (hashlib.sha256(log.to_csv().encode("utf-8")).hexdigest(),
            format_report(report, "loss") + format_report(report, "mttr"))


def observed_store():
    """The three digests that STORE_PINS holds, from two runs over a fresh directory."""
    with tempfile.TemporaryDirectory() as store_dir:
        store = Path(store_dir) / "instance-0.store"
        run_fixture("flow_a+scenario_a", store_dir)
        first = hashlib.sha256(store.read_bytes()).hexdigest()
        log = run_fixture("flow_a+scenario_a", store_dir)
        second = hashlib.sha256(store.read_bytes()).hexdigest()
    return first, second, hashlib.sha256(log.to_csv().encode("utf-8")).hexdigest()
