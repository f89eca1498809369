"""Tests of the benchmark itself: workload generation, the tracer and the gate."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402
from healflow.core.graph import parse_flow, validate_graph  # noqa: E402
from tracer import Tracer, targets  # noqa: E402

NAMES = sorted(workloads.GENERATORS)


def _bytes(wl):
    return "\0".join(wl.flows + (wl.scenario,)).encode("utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    assert _bytes(workloads.generate(name, 7)) == _bytes(workloads.generate(name, 7))
    assert _bytes(workloads.generate(name, 7)) != _bytes(workloads.generate(name, 8))


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
@pytest.mark.parametrize("name", NAMES)
def test_generated_flows_validate_without_errors(name, seed):
    for text in workloads.generate(name, seed).flows:
        errors = [d for d in validate_graph(parse_flow(text)) if d.severity == "error"]
        assert errors == []


def test_traced_run_restores_every_patch_and_keeps_the_timeline(tmp_path):
    name = "flow_c*2+scenario_c_loss"
    before = [vars(owner).get(attr) for owner, attr, _, _ in targets()]
    tracer = Tracer()
    with tracer:
        [traced] = pipeline.run_iteration(workloads.fixture(name), tmp_path, setup_repeats=1)
    after = [vars(owner).get(attr) for owner, attr, _, _ in targets()]
    assert all(a is b for a, b in zip(before, after))
    assert tracer.calls("cluster.receive_datagram") > 0
    assert tracer.calls("nodes.redundancy") > 0
    assert traced.outcome["csv_sha256"] == gate.load_pins()["fixtures"][name]


def test_gate_rejects_a_timeline_one_byte_off():
    name, pins = "flow_b+scenario_b", gate.load_pins()
    text = pipeline.setup(workloads.fixture(name), None).run().to_csv()
    assert gate.fixture_errors(name, text, pins) == []
    last = text[-2]
    off_by_one = text[:-2] + ("1" if last != "1" else "2") + text[-1]
    assert len(off_by_one) == len(text)
    assert gate.fixture_errors(name, off_by_one, pins)


@pytest.mark.parametrize("name", ["sensor_fanout", "checkpoint_restart"])
def test_seed_deals_out_the_same_sensor_periods(name):
    def periods(seed):
        scenario = json.loads(workloads.generate(name, seed).scenario)
        return sorted(d["period_ms"] for d in scenario["world"]["devices"])
    assert periods(1) == periods(2) == periods(99)
