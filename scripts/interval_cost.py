"""Cost of the interval-mode gate and of an interval monitor call against a
point monitor call.

    python3 scripts/interval_cost.py

Runs the ``grid_interval`` benchmark batch once (``waynet simulate --env all
--controller pd1,liveness,bangbang --episodes 2 --max-cycles 2000
--disturbance 0.1,0.002,0.1,0.1 --seed 1 --interval-mode``, 1,938 float
passes) and records the arguments of every pass of the controller monitor
that the harness's gate asks its float filter to certify. It then times the
recorded calls three ways: the point controller monitor on the waypoint; the
gate as the harness runs it, which is the point monitor, the filter, and the
interval evaluation for a pass the filter cannot tell; and the interval
evaluation on point intervals built from the same numbers. The timings
alternate for 20 rounds, the point and gate sides repeated to last at least
as long as the interval side; each side's minimum over the rounds is printed
in microseconds per call, with each side's ratio to the point side, and the
number of calls that fall through the filter to intervals.

On this batch the fall-through is 0: the gate never calls intervals, so the
interval column is the cost of a call that never happens. Near-boundary
traffic pays the gate on states the filter cannot certify, such as the
float-boundary states of ``tests/test_harness.py``, where every pass falls
through.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from waynet import cli, harness  # noqa: E402
from waynet.intervals import Ivl, interval_eval_controller  # noqa: E402
from waynet.monitor import certified_pass, controller_monitor  # noqa: E402


def record_gate_calls(episodes: int, max_cycles: int) -> list[tuple]:
    """(wp, v, a, p) of every float pass the gate filters in a grid_interval batch."""
    calls = []

    def recorded(wp, v, a, p):
        calls.append((wp, v, a, p))
        return certified_pass(wp, v, a, p)

    argv = ["simulate", "--env", "all", "--controller", "pd1,liveness,bangbang",
            "--episodes", str(episodes), "--max-cycles", str(max_cycles),
            "--disturbance", "0.1,0.002,0.1,0.1", "--seed", "1", "--interval-mode"]
    harness.certified_pass = recorded
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        harness.certified_pass = certified_pass
    if code != 0:
        raise SystemExit(f"simulate exited {code}")
    return calls


def point(wp, v, a, p):
    controller_monitor(wp, v, a, p)


def interval(wp, v, a, p):
    interval_eval_controller(Ivl(wp.x), Ivl(wp.y), Ivl(wp.k), Ivl(wp.vl), Ivl(wp.vh),
                             Ivl(v), Ivl(a), p)


def time_calls(call, calls, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        for wp, v, a, p in calls:
            call(wp, v, a, p)
    return (time.perf_counter() - start) / reps


def report(calls, rounds: int) -> str:
    """Each side's minimum time per call over ``rounds`` alternating rounds."""
    # The point and gate sides repeat so that each lasts at least as long as
    # the interval side, so all minima sample the CPU's speed over the same span.
    span = time_calls(interval, calls, 1)
    sides = {"point": point, "gate": harness._gate, "interval": interval}
    reps = {}
    for name, call in sides.items():
        reps[name] = 1
        while reps[name] * time_calls(call, calls, reps[name]) <= span:
            reps[name] *= 2
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(rounds):
        for name, call in sides.items():
            best[name] = min(best[name], time_calls(call, calls, reps[name]))
    n = len(calls)
    fallen = sum(not certified_pass(*c) for c in calls)
    return (f"calls {n}  point {1e6 * best['point'] / n:.2f} us"
            f"  gate {1e6 * best['gate'] / n:.2f} us  interval {1e6 * best['interval'] / n:.2f} us"
            f"  gate/point {best['gate'] / best['point']:.1f}"
            f"  interval/point {best['interval'] / best['point']:.1f}  fall-through {fallen}")


def main() -> int:
    print(report(record_gate_calls(episodes=2, max_cycles=2000), rounds=20))
    return 0


if __name__ == "__main__":
    sys.exit(main())
