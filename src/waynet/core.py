"""Shared domain types, norms, and parameter validation.

Values built every cycle are slotted, not frozen, dataclasses: a frozen
``__init__`` sets each field through ``object.__setattr__``. They still compare
by value, which the harness's stuck rule needs; no code hashes them, and none
sets a field after construction. ``WorldPose`` wraps its heading and derives
its cosine and sine in its own ``__init__``, one body that calls only the
math functions; the cosine and sine are fields left out of ``==`` and ``repr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_INF = math.inf
_PI, _TWO_PI = math.pi, 2.0 * math.pi


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
        # One pass of chained comparisons (NaN fails them); only a failure
        # looks for the first field at fault.
        A, B, T, eps = self.accel_max, self.brake_max, self.cycle_max, self.tol
        if not (0.0 < A < _INF and 0.0 < B < _INF and 0.0 < T < _INF and 0.0 < eps < _INF):
            for name, value in zip(("accel_max", "brake_max", "cycle_max", "tol"), (A, B, T, eps)):
                if not 0.0 < value < _INF:
                    raise ValueError(f"Params.{name} must be positive and finite, got {value!r}")
        # One cycle at full acceleration or braking moves A*T^2/2 or B*T^2/2.
        if not (A * T * T < _INF and B * T * T < _INF):
            name, value = ("brake_max", B) if A * T * T < _INF else ("accel_max", A)
            raise ValueError(f"Params.{name} * cycle_max**2 must be finite, "
                             f"got {name}={value!r}, cycle_max={T!r}")


@dataclass(slots=True)
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


@dataclass(slots=True)
class WorldPose:
    """World-frame pose backing the body-frame view. Heading normalized to
    (-pi, pi]; ``cos`` and ``sin`` are its cosine and sine, computed once."""

    x: float        # m
    y: float        # m
    heading: float  # rad
    cos: float = field(init=False, repr=False, compare=False)
    sin: float = field(init=False, repr=False, compare=False)

    def __init__(self, x: float, y: float, heading: float):
        # Wrap to (-pi, pi], ties mapping to +pi; math.fmod raises on inf.
        heading = math.fmod(heading, _TWO_PI)
        if heading > _PI:
            heading -= _TWO_PI
        elif heading <= -_PI:
            heading += _TWO_PI
        self.x, self.y, self.heading = x, y, heading
        self.cos, self.sin = math.cos(heading), math.sin(heading)


def inf_norm(x: float, y: float) -> float:
    """Chebyshev norm max(|x|, |y|)."""
    return max(abs(x), abs(y))
