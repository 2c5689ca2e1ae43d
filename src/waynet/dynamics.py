"""Kinematics: the exact flow of the plant, in the body frame and in the
world frame, the exact first entry into and last exit from a goal region
along it, actuation disturbance, and world/body frame conversion.

Within a cycle curvature and acceleration are constant, so the path is a
circular arc (a line for k = 0) of length s = v t + a t^2 / 2. The plant
domain never allows reverse motion: when braking drives the speed to zero
the trajectory freezes there (handled analytically, since speed is linear
in time).

No point of an arc of length s is farther than s from where it starts (a
chord is never longer than its arc), so ``goal_span`` answers a goal beyond
s + eps with one comparison and no trigonometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from waynet.core import WorldPose


@dataclass(frozen=True)
class Disturbance:
    """Actuation disturbance of the world-frame simulation.

    Curvature is scaled by (1 + curvature_gain_error) and shifted by
    curvature_bias; acceleration is scaled by (1 + accel_gain_error); cycle
    durations are drawn uniformly from [T (1 - cycle_jitter), T].
    """

    curvature_gain_error: float = 0.0
    curvature_bias: float = 0.0
    accel_gain_error: float = 0.0
    cycle_jitter: float = 0.0

    def __post_init__(self):
        if not abs(self.curvature_gain_error) < 1.0:
            raise ValueError("|curvature_gain_error| must be < 1")
        if not math.isfinite(self.curvature_bias):
            raise ValueError("curvature_bias must be finite")
        if not abs(self.accel_gain_error) < 1.0:
            raise ValueError("|accel_gain_error| must be < 1")
        if not 0.0 <= self.cycle_jitter < 1.0:
            raise ValueError("cycle_jitter must be in [0, 1)")


def _travel(v0: float, a: float, t: float):
    """Speed and arc length after time t, frozen at the v = 0 event for a < 0."""
    td = min(t, v0 / -a) if a < 0.0 else t
    return max(0.0, v0 + a * td), v0 * td + a * td * td / 2.0


def _arc_terms(u: float):
    """cos u, sin u, sin(u)/u and (1 - cos u)/u for the turn angle u = k s.

    The last two give the body-frame displacement (s sinc, s hvc) of an arc of
    length s, written without 1/k terms and by series near u = 0 so tiny
    curvatures degrade gracefully to the straight line.
    """
    c, sn = math.cos(u), math.sin(u)
    if abs(u) > 1e-4:
        return c, sn, sn / u, (1.0 - c) / u
    u2 = u * u
    return (c, sn, 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0),
            u / 2.0 * (1.0 - u2 / 12.0 * (1.0 - u2 / 30.0)))


def closed_form_relative(x: float, y: float, v0: float, a: float, k: float, t: float):
    """Exact flow of the plant ODE for time t >= 0. Returns (x, y, v).

    Speed is linear in time until the v = 0 event; the arc length drives a
    pure translation (k = 0) or a rotation about (0, 1/k) (k != 0).
    """
    if t < 0.0:
        raise ValueError(f"closed_form_relative requires t >= 0, got {t!r}")
    v, s = _travel(v0, a, t)
    if k == 0.0:
        return x - s, y, v
    # Rotation about (0, 1/k) by -k s.
    c, sn, sinc, hvc = _arc_terms(k * s)
    return x * c + y * sn - s * sinc, y * c - x * sn + s * hvc, v


def arc_step(pose: WorldPose, v: float, k: float, a: float, dt: float):
    """Exact world-frame flow for dt >= 0 under constant curvature k and
    acceleration a. Returns (WorldPose, v, s) with s the arc length driven."""
    v1, s = _travel(v, a, dt)
    u = k * s
    _, _, sinc, hvc = _arc_terms(u)
    dx, dy = s * sinc, s * hvc
    c, sn = pose.cos, pose.sin
    return WorldPose(pose.x + c * dx - sn * dy, pose.y + sn * dx + c * dy,
                     pose.heading + u), v1, s


def goal_span(x: float, y: float, k: float, s: float, eps: float):
    """First entry into and last exit from the goal region: the arc lengths
    (lo, hi) within [0, s] where the arc of curvature k, from the body-frame
    origin heading +x, first and last lies within eps of the point (x, y), or
    None when it never does. An arc that wraps its circle can leave and
    re-enter the region in between; the cost does not grow with the turns.

    A target beyond s + eps from the origin gives None at once. The test
    needs a relative margin of 1e-9, far above float rounding, plus 1e-300
    for subnormal squares, so it drops no span. Every comparison is written to
    fail on NaN, so any NaN argument gives None; an infinite s or eps never
    fires the test.
    """
    r = s + eps
    if not x * x + y * y <= r * r * (1.0 + 1e-9) + 1e-300:
        return None
    if k == 0.0:
        h2 = eps * eps - y * y
        if not h2 >= 0.0:
            return None
        h = math.sqrt(h2)
        lo, hi = max(0.0, x - h), min(s, x + h)
        return (lo, hi) if lo <= hi else None
    # The arc is the circle of radius 1/|k| about (0, 1/k). With w = |k| d, d
    # the distance from (x, y) to that center, delta = d - 1/|k| is the
    # signed distance of the point from the circle, computed without the
    # cancellation in w - 1 (w^2 - 1 factors exactly).
    ak = abs(k)
    sgn = 1.0 if k > 0.0 else -1.0
    w = math.hypot(ak * x, ak * y - sgn)
    delta = (ak * (x * x + y * y) - 2.0 * y * sgn) / (w + 1.0)
    h2 = eps * eps - delta * delta
    if not h2 >= 0.0:
        return None
    # Inside the disk iff the turn angle |k| sigma is within alpha of
    # beta + 2 pi n, beta the angle of closest approach (law of cosines about
    # the center), for some whole number of turns n.
    half = ak * math.sqrt(h2) / (2.0 * math.sqrt(w)) if w > 0.0 else math.inf
    if half >= 1.0:
        return (0.0, s)
    alpha = 2.0 * math.asin(half)
    beta = math.atan2(ak * x, 1.0 - k * y)
    u_max = ak * s
    turn = 2.0 * math.pi
    first = beta if beta + alpha >= 0.0 else beta + turn
    enter = first - alpha
    if enter > u_max:
        return None
    hi = first + math.floor((u_max - enter) / turn) * turn + alpha
    return min(s, max(0.0, enter) / ak), s if hi >= u_max else hi / ak


def actuated(k_cmd: float, a_cmd: float, dist: Disturbance):
    """Curvature and acceleration actually applied given commanded values."""
    k_act = k_cmd * (1.0 + dist.curvature_gain_error) + dist.curvature_bias
    a_act = a_cmd * (1.0 + dist.accel_gain_error)
    return k_act, a_act


def to_relative(pose: WorldPose, world_pt):
    """A world point in the body frame, as (x, y): forward = +x, left = +y."""
    dx = world_pt[0] - pose.x
    dy = world_pt[1] - pose.y
    c, s = pose.cos, pose.sin
    return c * dx + s * dy, -s * dx + c * dy
