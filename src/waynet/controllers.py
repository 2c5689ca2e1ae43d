"""Untrusted feedback controllers (bang-bang, PD), an admissible-acceleration
selector, and the reference speed controller used by the liveness argument.

Steering corrections are negative feedback on the annulus band residual e:
positive e means the declared band center passes left of the waypoint, i.e.
the robot has drifted left of the band, so the correction reduces curvature
(steers right). The monitors judge the declared arc; the steering command
sent to actuation may differ.
"""

from __future__ import annotations

import math

from waynet.core import Params, RelWaypoint
from waynet.monitor import ann_residual, fallback_accel, go
from waynet.plan import curvature_through

ACCEL_BISECT_TOL = 1e-6


def bang_bang(x: float, y: float, k_seg: float, eps: float, deadband: float,
              k_max: float) -> float:
    """Hard-left / hard-right steering around the declared segment curvature,
    toward the body-frame target (x, y), with k_max > 0."""
    e = ann_residual(x, y, k_seg, eps)
    if abs(e) <= deadband:
        return k_seg
    return k_seg - math.copysign(k_max, e)


def pd(e: float, prev_e: float, dt: float, k_seg: float, kp: float, kd: float,
       k_max: float) -> float:
    """Proportional-derivative steering on the band residual e (prev_e one
    cycle of dt > 0 earlier) around the segment curvature, clamped to
    [-k_max, k_max]. The gains kp (curvature per meter of residual) and kd
    (per m/s of residual rate) are non-negative."""
    cmd = k_seg - (kp * e + kd * (e - prev_e) / dt)
    return min(k_max, max(-k_max, cmd))


def choose_accel(wp: RelWaypoint, v: float, p: Params, target_speed: float) -> float:
    """Largest admissible acceleration not exceeding the one that reaches
    target_speed by cycle end; falls back to maximum braking when no candidate
    is admissible. The returned value passes go or equals fallback_accel."""
    a_lo = -p.brake_max
    a_hi = max(a_lo, min(p.accel_max, (target_speed - v) / p.cycle_max))
    if go(wp, v, a_hi, p).passed:
        return a_hi
    if not go(wp, v, a_lo, p).passed:
        return fallback_accel(v, p)
    # go holds at a_lo and fails at a_hi: bisect the boundary; lo stays passing.
    lo, hi = a_lo, a_hi
    while hi - lo > ACCEL_BISECT_TOL:
        mid = (lo + hi) / 2.0
        if go(wp, v, mid, p).passed:
            lo = mid
        else:
            hi = mid
    return lo


def liveness_accel(v: float, vl: float, vh: float, A: float, B: float) -> float:
    """Reference speed law: speed up below the limits, cruise inside them,
    brake above them. It assumes 0 <= vl < vh, which ``PlanGraph``
    construction requires of every node."""
    if v < vl:
        return A
    if v <= vh:
        return 0.0
    return -B


def declared_curvature(x: float, y: float, k_seg: float, eps: float) -> float:
    """Curvature declared to the monitor for the body-frame target (x, y): the
    one that zeroes the annulus residual when admissible, otherwise the
    segment's own curvature."""
    try:
        k_star = curvature_through(x, y, eps)
    except ValueError:  # (x, y) is inside the goal region
        return k_seg
    return k_star if abs(k_star) * eps <= 1.0 else k_seg
