import importlib.util
import re
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "interval_cost", Path(__file__).resolve().parents[1] / "scripts" / "interval_cost.py")
interval_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(interval_cost)


def test_reports_the_cost_of_both_calls_and_their_ratio():
    line = interval_cost.report(interval_cost.record_gate_calls(episodes=1, max_cycles=40),
                                rounds=1)
    match = re.fullmatch(r"calls (\d+)  point ([\d.]+) us  interval ([\d.]+) us  ratio ([\d.]+)",
                         line)
    assert match, line
    assert int(match[1]) > 0
    assert float(match[2]) > 0.0 and float(match[3]) > 0.0 and float(match[4]) > 0.0


def test_recorded_calls_are_the_gate_inputs():
    calls = interval_cost.record_gate_calls(episodes=1, max_cycles=40)
    assert calls
    for wp, v, a, p in calls:
        # The gate asks the interval monitor only about proposals the point
        # monitor passed.
        assert interval_cost.controller_monitor(wp, v, a, p).passed
