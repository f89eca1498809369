"""Golden timelines: the full SHA-256 of to_csv() for each fixture flow/scenario pair,
and the loss and MTTR report text of each.

A change that moves any fixture timeline by even one byte fails here. A
change that alters behaviour on purpose updates these digests and says so.
"""

import hashlib

import pytest

from healflow.core.graph import parse_flow
from healflow.report import compute_report, format_report
from healflow.sim import Simulation, parse_scenario

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
}


def run_fixture(name, fixture_path):
    flows, scenario, _ = GOLDEN[name]
    graphs = [parse_flow(fixture_path(f).read_text()) for f in flows]
    script = parse_scenario(fixture_path(scenario).read_text())
    return Simulation(graphs, script).run()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_fixture_timeline_is_byte_identical(name, fixture_path):
    text = run_fixture(name, fixture_path).to_csv()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name][2]


@pytest.mark.parametrize("name", list(REPORTS))
def test_fixture_report_text_is_pinned(name, fixture_path):
    report = compute_report(run_fixture(name, fixture_path))
    assert format_report(report, "loss") + format_report(report, "mttr") == REPORTS[name]
