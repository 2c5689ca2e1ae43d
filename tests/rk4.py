"""Classical RK4 integration of the body-frame plant ODE: the independent
oracle that the dynamics-fidelity tests compare the exact flow against, and
the inverse of the body-frame transform."""

import math

from waynet.core import WorldPose


def from_relative(pose: WorldPose, rel):
    """Inverse of to_relative: body-frame (x, y) back to world coordinates."""
    x, y = rel
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    return (pose.x + c * x - s * y, pose.y + s * x + c * y)


def plant_derivative(x: float, y: float, v: float, a: float, k: float):
    """Body-frame plant ODE right-hand side at (x, y): (dx, dy, dv, dt)."""
    return (v * (k * y - 1.0), -v * k * x, a, 1.0)


def _stop_time(v0: float, a: float, t: float) -> float:
    """Duration actually driven in [0, t]: capped at the v = 0 event for a < 0."""
    if a < 0.0:
        return min(t, v0 / -a)
    return t


def step_relative(x: float, y: float, v: float, a: float, k: float, dt: float,
                  substeps: int = 20):
    """Classical RK4 integration of the plant ODE over dt from the body-frame
    point (x, y), with the v = 0 event handled analytically. Returns
    (x, y, v)."""
    if dt < 0.0:
        raise ValueError(f"step_relative requires dt >= 0, got {dt!r}")
    if substeps < 1:
        raise ValueError(f"step_relative requires substeps >= 1, got {substeps}")
    td = _stop_time(v, a, dt)
    if td <= 0.0:
        return x, y, max(0.0, v)
    h = td / substeps

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
    return x, y, max(0.0, v + a * td)
