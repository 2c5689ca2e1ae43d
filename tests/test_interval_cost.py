import importlib.util
import re
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "interval_cost", Path(__file__).resolve().parents[1] / "scripts" / "interval_cost.py")
interval_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(interval_cost)


def test_reports_the_cost_of_each_side_their_ratios_and_the_fall_through():
    line = interval_cost.report(interval_cost.record_gate_calls(episodes=1, max_cycles=40),
                                rounds=1)
    match = re.fullmatch(r"calls (\d+)  point ([\d.]+) us  gate ([\d.]+) us  interval ([\d.]+) us"
                         r"  gate/point ([\d.]+)  interval/point ([\d.]+)  fall-through (\d+)",
                         line)
    assert match, line
    assert int(match[1]) > 0
    assert all(float(match[i]) > 0.0 for i in range(2, 7))
    assert int(match[7]) <= int(match[1])


def test_recorded_calls_are_the_gate_inputs():
    calls = interval_cost.record_gate_calls(episodes=1, max_cycles=40)
    assert calls
    for wp, v, a, p in calls:
        # The gate asks the filter only about proposals the point monitor passed.
        assert interval_cost.controller_monitor(wp, v, a, p).passed
