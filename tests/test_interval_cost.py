import importlib.util
import re
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "interval_cost", Path(__file__).resolve().parents[1] / "scripts" / "interval_cost.py")
interval_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(interval_cost)

_LINE = re.compile(r"(\w+): calls (\d+)  point ([\d.]+) us  gate ([\d.]+) us"
                   r"  interval ([\d.]+) us  gate/point ([\d.]+)  interval/point ([\d.]+)"
                   r"  fall-through (\d+)")


def _parse(label, calls):
    match = _LINE.fullmatch(interval_cost.report(label, calls, rounds=1))
    assert match, label
    assert match[1] == label and int(match[2]) == len(calls) > 0
    assert all(float(match[i]) > 0.0 for i in range(3, 8))
    return int(match[8])


def test_reports_the_cost_of_each_side_their_ratios_and_the_fall_through():
    calls = interval_cost.record_gate_calls(episodes=1, max_cycles=40)
    assert _parse("batch", calls) == 0  # every pass of the batch is certified


def test_every_float_boundary_state_falls_through_to_intervals():
    assert _parse("boundary", interval_cost.float_boundary_states(seed=0)[:40]) == 40


def test_recorded_calls_are_the_gate_inputs():
    calls = interval_cost.record_gate_calls(episodes=1, max_cycles=40)
    assert calls
    for wp, v, a, p in calls:
        # No call falls through, so the gate returns the point verdict itself.
        assert interval_cost.harness._gate(wp, v, a, p) is \
            interval_cost.controller_monitor(wp, v, a, p)
