"""Cost of an interval monitor call against a point monitor call.

    python3 scripts/interval_cost.py

Runs the ``grid_interval`` benchmark batch once (``waynet simulate --env all
--controller pd1,liveness,bangbang --episodes 2 --max-cycles 2000
--disturbance 0.1,0.002,0.1,0.1 --seed 1 --interval-mode``, 1,938 interval
calls) and records the arguments of every interval evaluation the harness's
gate makes. It then times the recorded calls both ways, as the gate makes
them: the point controller monitor on the waypoint, and the interval
evaluation on point intervals built from the same numbers. The two timings
alternate for 20 rounds, the point side repeated to last at least as long as
the interval side; each side's minimum over the rounds is printed in
microseconds per call, with the ratio of the two.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from waynet import cli, harness  # noqa: E402
from waynet.core import RelWaypoint  # noqa: E402
from waynet.intervals import Ivl, interval_eval_controller  # noqa: E402
from waynet.monitor import controller_monitor  # noqa: E402


def record_gate_calls(episodes: int, max_cycles: int) -> list[tuple]:
    """(wp, v, a, p) of every interval evaluation in a grid_interval batch."""
    calls = []

    def recorded(x, y, k, vl, vh, v, a, p):
        calls.append((RelWaypoint(x.lo, y.lo, k.lo, vl.lo, vh.lo), v.lo, a.lo, p))
        return interval_eval_controller(x, y, k, vl, vh, v, a, p)

    argv = ["simulate", "--env", "all", "--controller", "pd1,liveness,bangbang",
            "--episodes", str(episodes), "--max-cycles", str(max_cycles),
            "--disturbance", "0.1,0.002,0.1,0.1", "--seed", "1", "--interval-mode"]
    harness.interval_eval_controller = recorded
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        harness.interval_eval_controller = interval_eval_controller
    if code != 0:
        raise SystemExit(f"simulate exited {code}")
    return calls


def time_point(calls, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        for wp, v, a, p in calls:
            controller_monitor(wp, v, a, p)
    return (time.perf_counter() - start) / reps


def time_interval(calls) -> float:
    start = time.perf_counter()
    for wp, v, a, p in calls:
        interval_eval_controller(Ivl(wp.x), Ivl(wp.y), Ivl(wp.k), Ivl(wp.vl),
                                 Ivl(wp.vh), Ivl(v), Ivl(a), p)
    return time.perf_counter() - start


def report(calls, rounds: int) -> str:
    """Both sides' minimum time per call over ``rounds`` alternating rounds."""
    # The point side repeats so that it lasts at least as long as the
    # interval side, so both minima sample the CPU's speed over the same span.
    interval = time_interval(calls)
    reps = 1
    while reps * time_point(calls, reps) <= interval:
        reps *= 2
    point = interval = float("inf")
    for _ in range(rounds):
        point = min(point, time_point(calls, reps))
        interval = min(interval, time_interval(calls))
    n = len(calls)
    return (f"calls {n}  point {1e6 * point / n:.2f} us  interval {1e6 * interval / n:.2f} us"
            f"  ratio {interval / point:.1f}")


def main() -> int:
    print(report(record_gate_calls(episodes=2, max_cycles=2000), rounds=20))
    return 0


if __name__ == "__main__":
    sys.exit(main())
