"""Kinematics: the body-frame plant ODE with an exact closed-form solution,
an RK4 integrator for it, a world-frame unicycle with actuation disturbance,
and world/body frame conversion.

The plant domain never allows reverse motion: when braking drives the speed
to zero the trajectory freezes there (handled analytically, since speed is
linear in time, rather than by step rejection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from waynet.core import WorldPose, normalize_angle


@dataclass(frozen=True)
class RelPoint:
    """Waypoint position in the body frame."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"RelPoint must be finite, got ({self.x!r}, {self.y!r})")


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

    @property
    def is_zero(self) -> bool:
        return (self.curvature_gain_error == 0.0 and self.curvature_bias == 0.0
                and self.accel_gain_error == 0.0 and self.cycle_jitter == 0.0)


ZERO_DISTURBANCE = Disturbance()


def plant_derivative(pt: RelPoint, v: float, a: float, k: float):
    """Body-frame plant ODE right-hand side: (dx, dy, dv, dt)."""
    return (v * (k * pt.y - 1.0), -v * k * pt.x, a, 1.0)


def _stop_time(v0: float, a: float, t: float) -> float:
    """Duration actually driven in [0, t]: capped at the v = 0 event for a < 0."""
    if a < 0.0:
        return min(t, v0 / -a)
    return t


def closed_form_relative(pt0: RelPoint, v0: float, a: float, k: float, t: float):
    """Exact flow of the plant ODE for time t >= 0. Returns (RelPoint, v).

    Speed is linear in time until the v = 0 event; the arc length drives a
    pure translation (k = 0) or a rotation about (0, 1/k) (k != 0).
    """
    if t < 0.0:
        raise ValueError(f"closed_form_relative requires t >= 0, got {t!r}")
    td = _stop_time(v0, a, t)
    v = max(0.0, v0 + a * td)
    s = v0 * td + a * td * td / 2.0
    if k == 0.0:
        return RelPoint(pt0.x - s, pt0.y), v
    # Rotation about (0, 1/k) by -k s, written without 1/k terms so tiny
    # curvatures degrade gracefully to the straight-line translation.
    u = k * s
    c, sn = math.cos(u), math.sin(u)
    if abs(u) > 1e-4:
        sinc = sn / u
        hvc = (1.0 - c) / u
    else:
        u2 = u * u
        sinc = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0)
        hvc = u / 2.0 * (1.0 - u2 / 12.0 * (1.0 - u2 / 30.0))
    x, y = pt0.x, pt0.y
    return RelPoint(x * c + y * sn - s * sinc, y * c - x * sn + s * hvc), v


def step_relative(pt: RelPoint, v: float, a: float, k: float, dt: float,
                  substeps: int = 20):
    """Classical RK4 integration of the plant ODE over dt with the v = 0 event
    handled analytically. Returns (RelPoint, v)."""
    if dt < 0.0:
        raise ValueError(f"step_relative requires dt >= 0, got {dt!r}")
    if substeps < 1:
        raise ValueError(f"step_relative requires substeps >= 1, got {substeps}")
    td = _stop_time(v, a, dt)
    if td <= 0.0:
        return pt, max(0.0, v)
    h = td / substeps
    x, y = pt.x, pt.y

    def deriv(x, y, v):
        return v * (k * y - 1.0), -v * k * x

    for i in range(substeps):
        vi = v + a * (i * h)
        vm = vi + a * (h / 2.0)
        ve = vi + a * h
        k1x, k1y = deriv(x, y, vi)
        k2x, k2y = deriv(x + h / 2.0 * k1x, y + h / 2.0 * k1y, vm)
        k3x, k3y = deriv(x + h / 2.0 * k2x, y + h / 2.0 * k2y, vm)
        k4x, k4y = deriv(x + h * k3x, y + h * k3y, ve)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return RelPoint(x, y), max(0.0, v + a * td)


def actuated(k_cmd: float, a_cmd: float, dist: Disturbance):
    """Curvature and acceleration actually applied given commanded values."""
    k_act = k_cmd * (1.0 + dist.curvature_gain_error) + dist.curvature_bias
    a_act = a_cmd * (1.0 + dist.accel_gain_error)
    return k_act, a_act


def world_step(pose: WorldPose, v: float, k_cmd: float, a_cmd: float, dt: float,
               dist: Disturbance = ZERO_DISTURBANCE, substeps: int = 20):
    """Integrate the world-frame unicycle for dt with actuation disturbance.

    RK4 on (X, Y, psi) with speed linear in time, clamped at zero (the
    vehicle never reverses). Returns (WorldPose, v).
    """
    if dt < 0.0:
        raise ValueError(f"world_step requires dt >= 0, got {dt!r}")
    k_act, a_act = actuated(k_cmd, a_cmd, dist)
    td = _stop_time(v, a_act, dt)
    if td <= 0.0:
        return pose, max(0.0, v)
    h = td / substeps
    X, Y, psi = pose.x, pose.y, pose.heading
    for i in range(substeps):
        vi = v + a_act * (i * h)
        vm = vi + a_act * (h / 2.0)
        ve = vi + a_act * h
        # psi' = v k_act decouples from X, Y; X' = v cos psi, Y' = v sin psi.
        p1 = psi
        p2 = psi + h / 2.0 * vi * k_act
        p3 = psi + h / 2.0 * vm * k_act
        p4 = psi + h * vm * k_act
        k1x, k1y = vi * math.cos(p1), vi * math.sin(p1)
        k2x, k2y = vm * math.cos(p2), vm * math.sin(p2)
        k3x, k3y = vm * math.cos(p3), vm * math.sin(p3)
        k4x, k4y = ve * math.cos(p4), ve * math.sin(p4)
        X += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        Y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        psi += h / 6.0 * (vi * k_act + 2.0 * vm * k_act + 2.0 * vm * k_act + ve * k_act)
    return WorldPose(X, Y, normalize_angle(psi)), max(0.0, v + a_act * td)


def to_relative(pose: WorldPose, world_pt) -> RelPoint:
    """Express a world point in the body frame: forward = +x, left = +y."""
    dx = world_pt[0] - pose.x
    dy = world_pt[1] - pose.y
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    return RelPoint(c * dx + s * dy, -s * dx + c * dy)


def from_relative(pose: WorldPose, rel: RelPoint):
    """Inverse of to_relative: body-frame point back to world coordinates."""
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    return (pose.x + c * rel.x - s * rel.y, pose.y + s * rel.x + c * rel.y)
