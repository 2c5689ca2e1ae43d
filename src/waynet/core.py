"""Shared domain types, norms, and parameter validation."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Params:
    """Symbolic constants of the model.

    accel_max / brake_max are the maximum forward / braking acceleration
    magnitudes, cycle_max the maximum delay between control cycles, and
    tol the goal-region radius (and path-following tolerance).
    """

    accel_max: float  # A, m/s^2
    brake_max: float  # B, m/s^2
    cycle_max: float  # T, s
    tol: float        # epsilon, m

    def __post_init__(self):
        for name in ("accel_max", "brake_max", "cycle_max", "tol"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"Params.{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class RelWaypoint:
    """Waypoint in the vehicle's body frame: positive x forward, positive y left.

    Feasibility is a monitor judgment, not a type constraint, so no field
    invariants are enforced here.
    """

    x: float   # m, forward offset
    y: float   # m, left offset
    k: float   # 1/m, signed curvature of the declared arc (0 = straight line)
    vl: float  # m/s, lower speed limit at the waypoint
    vh: float  # m/s, upper speed limit at the waypoint


def normalize_angle(psi: float) -> float:
    """Wrap an angle to (-pi, pi], ties mapping to +pi."""
    wrapped = math.fmod(psi, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class WorldPose:
    """World-frame pose backing the body-frame view. Heading normalized to (-pi, pi]."""

    x: float        # m
    y: float        # m
    heading: float  # rad

    def __post_init__(self):
        object.__setattr__(self, "heading", normalize_angle(self.heading))


def inf_norm(x: float, y: float) -> float:
    """Chebyshev norm max(|x|, |y|)."""
    return max(abs(x), abs(y))


def euclid_norm(x: float, y: float) -> float:
    """Euclidean norm sqrt(x^2 + y^2)."""
    return math.hypot(x, y)
