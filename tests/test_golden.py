"""The golden pins of golden_pins.py, checked under pytest."""

import pytest

from tests.conftest import shuffled_cluster_ties
from tests.golden_pins import GOLDEN, REPORTS, STORE_PINS, observed, observed_store


@pytest.mark.parametrize("name", list(GOLDEN))
def test_fixture_timeline_is_byte_identical(name):
    assert observed(name)[0] == GOLDEN[name][2]


@pytest.mark.parametrize("name", list(REPORTS))
def test_fixture_report_text_is_pinned(name):
    assert observed(name)[1] == REPORTS[name]


def test_store_file_of_two_runs_is_byte_identical():
    assert observed_store() == STORE_PINS


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", list(GOLDEN))
def test_fixture_timeline_keeps_its_pin_with_cluster_ties_shuffled(name, seed):
    with shuffled_cluster_ties(seed):
        assert observed(name)[0] == GOLDEN[name][2]
