"""Golden timelines: the full SHA-256 of to_csv() for each fixture flow/scenario pair.

A change that moves any fixture timeline by even one byte fails here. A
change that alters behaviour on purpose updates these digests and says so.
"""

import hashlib

import pytest

from healflow.core.graph import parse_flow
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


@pytest.mark.parametrize("name", list(GOLDEN))
def test_fixture_timeline_is_byte_identical(name, fixture_path):
    flows, scenario, digest = GOLDEN[name]
    graphs = [parse_flow(fixture_path(f).read_text()) for f in flows]
    script = parse_scenario(fixture_path(scenario).read_text())
    text = Simulation(graphs, script).run().to_csv()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
