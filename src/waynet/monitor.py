"""Monitor formulas: annulus membership, feasibility, admissibility, the loop
invariant, controller/plant monitors, and the braking fallback.

All comparisons follow the model formulas exactly: the annulus band is
strict <, the distance clauses are non-strict <=. Clause evaluation order is
fixed so failure attribution is deterministic. The invariant takes an
optional ``slack`` that relaxes each of its comparisons by an absolute margin;
it exists for the numeric invariant-preservation checks and defaults to zero.

The controller monitor is written once, over any numbers with the arithmetic
and ordering operators: ``waynet.intervals`` evaluates it over intervals,
whose comparisons raise ``Undecided`` when they hold for some points of their
operands and fail for others.

The monitors run every control cycle, so each of ``feas``, ``go`` and
``invariant_j`` is one flat function body, and the two monitors are
conjunctions of them. Failing verdicts are module globals bound at import: on
CPython 3.11 reading an enum member costs about 170 ns, a global about 13 ns.
The composed form, with the annulus, ``lim`` and ``deltaLim`` helpers of the
model, is kept as the test oracle in ``tests/monitor_ref.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from waynet.core import Params, RelWaypoint

_INF = math.inf


class Clause(enum.Enum):
    """First violated clause of a monitor formula, for diagnostics and metrics."""

    NONE = "none"
    ANN_SCALE = "ann_scale"          # |k| * eps <= 1
    ANN_BAND = "ann_band"            # |k (x^2+y^2-eps^2)/2 - y| < eps
    AHEAD = "ahead"                  # x > 0
    LIMITS_ORDER = "limits_order"    # 0 <= vl < vh < inf
    LIMIT_GAP_A = "limit_gap_a"      # A T <= vh - vl
    LIMIT_GAP_B = "limit_gap_b"      # B T <= vh - vl
    ACCEL_RANGE = "accel_range"      # -B <= a <= A
    NON_NEG_SPEED = "non_neg_speed"  # v + a T >= 0
    UPPER_SPEED = "upper_speed"      # upper-limit clause (vh side)
    LOWER_SPEED = "lower_speed"      # lower-limit clause (vl side)
    CYCLE_TIME = "cycle_time"        # 0 <= elapsed <= T
    PLANT_DOMAIN = "plant_domain"    # v >= 0
    INTERVAL_UNDECIDED = "interval_undecided"  # interval mode could not certify


class Undecided(ArithmeticError):
    """A comparison of intervals that holds for some of their points only."""


@dataclass(frozen=True)
class MonitorVerdict:
    passed: bool
    failed_clause: Clause

    def __post_init__(self):
        if self.passed != (self.failed_clause is Clause.NONE):
            raise ValueError("passed must hold exactly when failed_clause is NONE")

    def __bool__(self) -> bool:
        return self.passed


PASS = MonitorVerdict(True, Clause.NONE)
# One shared failing verdict per clause, bound to a module global at import.
(FAIL_ANN_SCALE, FAIL_ANN_BAND, FAIL_AHEAD, FAIL_LIMITS_ORDER, FAIL_LIMIT_GAP_A,
 FAIL_LIMIT_GAP_B, FAIL_ACCEL_RANGE, FAIL_NON_NEG_SPEED, FAIL_UPPER_SPEED,
 FAIL_LOWER_SPEED, FAIL_CYCLE_TIME, FAIL_PLANT_DOMAIN, FAIL_INTERVAL_UNDECIDED) = (
    MonitorVerdict(False, c) for c in Clause if c is not Clause.NONE)


def ann_residual(x: float, y: float, k: float, eps: float) -> float:
    """Signed distance-like residual of the annulus band: k(x^2+y^2-eps^2)/2 - y."""
    return k * (x * x + y * y - eps * eps) * 0.5 - y


def feas(wp: RelWaypoint, p: Params) -> MonitorVerdict:
    """Physical feasibility of the declared (waypoint, curvature, limits)."""
    eps = p.tol
    if abs(wp.k) * eps > 1.0:
        return FAIL_ANN_SCALE
    if not abs(ann_residual(wp.x, wp.y, wp.k, eps)) < eps:
        return FAIL_ANN_BAND
    if not wp.x > 0.0:
        return FAIL_AHEAD
    if not (0.0 <= wp.vl < wp.vh < _INF):
        return FAIL_LIMITS_ORDER
    gap = wp.vh - wp.vl
    if not p.accel_max * p.cycle_max <= gap:
        return FAIL_LIMIT_GAP_A
    if not p.brake_max * p.cycle_max <= gap:
        return FAIL_LIMIT_GAP_B
    return PASS


def go(wp: RelWaypoint, v: float, a: float, p: Params) -> MonitorVerdict:
    """Admissibility of acceleration a: predicts the motion over one cycle and
    requires either in-limit speeds or enough distance to restore the limits."""
    T = p.cycle_max
    if not (-p.brake_max <= a <= p.accel_max):
        return FAIL_ACCEL_RANGE
    v_end = v + a * T
    if not v_end >= 0.0:
        return FAIL_NON_NEG_SPEED
    undecided = False
    try:
        within = v <= wp.vh and v_end <= wp.vh
    except Undecided:  # the distance disjunct below may still decide
        within, undecided = False, True
    if not within:
        gap_term = (v_end * v_end - wp.vh * wp.vh) / (2.0 * p.brake_max)
        bloat = 1.0 + abs(wp.k) * p.tol
        need = bloat * bloat * (v * T + a * T * T * 0.5 + gap_term) + p.tol
        # need <= max(|x|, |y|) side by side: over boxes, max(|x|, |y|) can be undecided.
        for side in (wp.x, wp.y):
            try:
                if need <= abs(side):
                    break
            except Undecided:
                undecided = True
        else:
            if undecided:
                raise Undecided
            return FAIL_UPPER_SPEED
    undecided = False
    try:
        if wp.vl <= v and wp.vl <= v_end:
            return PASS
    except Undecided:
        undecided = True
    gap_term = (wp.vl * wp.vl - v_end * v_end) / (2.0 * p.accel_max)
    bloat = 1.0 + abs(wp.k) * p.tol
    need = bloat * bloat * (v * T + a * T * T * 0.5 + gap_term) + p.tol
    for side in (wp.x, wp.y):
        try:
            if need <= abs(side):
                return PASS
        except Undecided:
            undecided = True
    if undecided:
        raise Undecided
    return FAIL_LOWER_SPEED


def invariant_j(wp: RelWaypoint, v: float, p: Params,
                slack: float = 0.0) -> MonitorVerdict:
    """Loop invariant: annulus membership, well-formed limits, and both speed
    gaps closable with maximum acceleration / braking in the remaining
    distance, bloated by (1+|k|eps)^2 for the annulus width around a curved path."""
    eps = p.tol
    if abs(wp.k) * eps > 1.0 + slack:
        return FAIL_ANN_SCALE
    if not abs(ann_residual(wp.x, wp.y, wp.k, eps)) < eps + slack:
        return FAIL_ANN_BAND
    vl, vh = wp.vl, wp.vh
    if not (0.0 - slack <= vl < vh + slack < _INF):
        return FAIL_LIMITS_ORDER
    gap = vh - vl
    if not p.accel_max * p.cycle_max <= gap + slack:
        return FAIL_LIMIT_GAP_A
    if not p.brake_max * p.cycle_max <= gap + slack:
        return FAIL_LIMIT_GAP_B
    if not vl <= v + slack:
        bloat = 1.0 + abs(wp.k) * eps
        if not (bloat * bloat * (vl * vl - v * v) / (2.0 * p.accel_max) + eps
                <= max(abs(wp.x), abs(wp.y)) + slack):
            return FAIL_LOWER_SPEED
    if not v <= vh + slack:
        bloat = 1.0 + abs(wp.k) * eps
        if not (bloat * bloat * (v * v - vh * vh) / (2.0 * p.brake_max) + eps
                <= max(abs(wp.x), abs(wp.y)) + slack):
            return FAIL_UPPER_SPEED
    return PASS


def controller_monitor(wp: RelWaypoint, v: float, a: float, p: Params) -> MonitorVerdict:
    """Gate for an untrusted control proposal: feasibility and admissibility."""
    verdict = feas(wp, p)
    if not verdict.passed:
        return verdict
    return go(wp, v, a, p)


def plant_monitor(wp: RelWaypoint, v: float, elapsed: float, p: Params) -> MonitorVerdict:
    """Check that sensed physics stayed inside the modeled dynamics for one cycle."""
    verdict = invariant_j(wp, v, p)
    if not verdict.passed:
        return verdict
    if not 0.0 <= elapsed <= p.cycle_max:
        return FAIL_CYCLE_TIME
    if not v >= 0.0:
        return FAIL_PLANT_DOMAIN
    return PASS


def fallback_accel(v: float, p: Params) -> float:
    """Trusted fallback: brake as hard as possible without predicting reverse
    motion at the end of the cycle, i.e. max(-B, -v/T)."""
    if v < 0.0:
        raise ValueError(f"fallback_accel requires v >= 0, got {v!r}")
    return max(-p.brake_max, -v / p.cycle_max)
