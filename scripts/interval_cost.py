"""Cost of the interval-mode gate and of an interval monitor call against a
point monitor call, on two kinds of traffic.

    python3 scripts/interval_cost.py

The batch: runs the ``grid_interval`` benchmark batch once (``waynet
simulate --env all --controller pd1,liveness,bangbang --episodes 2
--max-cycles 2000 --disturbance 0.1,0.002,0.1,0.1 --seed 1 --interval-mode``)
and records the arguments of every call of the harness's gate: 1,952 calls,
1,938 of them float passes. The boundary: the 695 float-boundary states of
seed 0 (``float_boundary_states``, which ``tests/test_harness.py`` also
uses), where the float monitor passes every state and the gate's one pass
certifies none, so every call falls through to intervals. No perfbench
workload has this near-boundary traffic.

Each set is timed three ways: the point controller monitor; the gate as the
harness runs it, which is one pass of ``certified_controller_monitor`` and
the interval evaluation for a pass it cannot certify; and the interval
evaluation on point intervals built from the same numbers. The timings
alternate for 20 rounds, the point and gate sides repeated to last at least
as long as the interval side; each side's minimum over the rounds is printed
in microseconds per call, with each side's ratio to the point side, and the
number of calls that fall through to intervals. On the batch the
fall-through is 0, so its interval column is the cost of a call that never
happens.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from waynet import cli, harness  # noqa: E402
from waynet.intervals import Ivl, interval_eval_controller  # noqa: E402
from waynet.monitor import certified_controller_monitor, controller_monitor, go  # noqa: E402
from waynet.verify import sample_compliant_state  # noqa: E402


def record_gate_calls(episodes: int, max_cycles: int) -> list[tuple]:
    """(wp, v, a, p) of every gate call in a grid_interval batch."""
    calls = []

    def recorded(wp, v, a, p):
        calls.append((wp, v, a, p))
        return certified_controller_monitor(wp, v, a, p)

    argv = ["simulate", "--env", "all", "--controller", "pd1,liveness,bangbang",
            "--episodes", str(episodes), "--max-cycles", str(max_cycles),
            "--disturbance", "0.1,0.002,0.1,0.1", "--seed", "1", "--interval-mode"]
    harness.certified_controller_monitor = recorded
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        harness.certified_controller_monitor = certified_controller_monitor
    if code != 0:
        raise SystemExit(f"simulate exited {code}")
    return calls


def float_boundary_states(seed: int) -> list[tuple]:
    """(wp, v, a, p) with ``a`` the largest float at which ``go`` passes, one
    float below a failing ``a``, found by bisection between -B and A, for each
    of 3,000 ``sample_compliant_state(require_go=False)`` draws where ``go``
    passes at -B and fails at A."""
    rng = random.Random(seed)
    states = []
    for _ in range(3000):
        sample = sample_compliant_state(rng, require_go=False)
        wp, v, p = sample.wp, sample.v, sample.p
        lo, hi = -p.brake_max, p.accel_max
        if go(wp, v, hi, p).passed or not go(wp, v, lo, p).passed:
            continue
        while (mid := lo + (hi - lo) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if go(wp, v, mid, p).passed else (lo, mid)
        states.append((wp, v, lo, p))
    return states


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


def report(label: str, calls, rounds: int) -> str:
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
    fallen = 0
    for call in calls:
        verdict, certified = certified_controller_monitor(*call)
        fallen += verdict.passed and not certified
    return (f"{label}: calls {n}  point {1e6 * best['point'] / n:.2f} us"
            f"  gate {1e6 * best['gate'] / n:.2f} us  interval {1e6 * best['interval'] / n:.2f} us"
            f"  gate/point {best['gate'] / best['point']:.1f}"
            f"  interval/point {best['interval'] / best['point']:.1f}  fall-through {fallen}")


def main() -> int:
    print(report("batch", record_gate_calls(episodes=2, max_cycles=2000), rounds=20))
    print(report("boundary", float_boundary_states(seed=0), rounds=20))
    return 0


if __name__ == "__main__":
    sys.exit(main())
