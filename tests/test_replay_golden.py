"""Bit-identity of end-to-end replay against recorded golden values.

``tests/data/replay_golden.json`` holds ``float.hex`` iteration times of
:func:`measure_end_to_end` for every zoo network on a GPU, a CPU and the
multi-engine HL-100, in both composition modes, recorded before DFG replay
plans were compiled and memoized.  Exact equality pins the float operations
and the heap tie-break order of Algorithm 2, not just the values to a
tolerance.
"""

import json
from pathlib import Path

import pytest

from repro.replay.e2e import measure_end_to_end

GOLDEN = json.loads((Path(__file__).parent / "data" / "replay_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN["iteration_time_s"]))
def test_iteration_time_is_bit_identical(case):
    network, device, mode = case.split("/")
    result = measure_end_to_end(network, device, seed=GOLDEN["seed"], compose=mode)
    assert result.iteration_time_s.hex() == GOLDEN["iteration_time_s"][case]


@pytest.mark.parametrize("case", sorted(GOLDEN["timeline"]))
def test_timeline_is_bit_identical(case):
    network, device, mode = case.split("/")
    result = measure_end_to_end(network, device, seed=GOLDEN["seed"], compose=mode)
    timeline = [
        [node.name, node.start_s.hex(), node.end_s.hex(), node.device_slot]
        for node in result.timeline.values()
    ]
    assert timeline == GOLDEN["timeline"][case]
