"""Monitor formulas: annulus membership, feasibility, admissibility, the loop
invariant, controller/plant monitors, the braking fallback, and the 1D toy monitor.

All comparisons follow the model formulas exactly: the annulus band is
strict <, the distance clauses are non-strict <=. Clause evaluation order is
fixed so failure attribution is deterministic. The invariant takes an
optional ``slack`` that relaxes each of its comparisons by an absolute margin;
it exists for the numeric invariant-preservation checks and defaults to zero.

The controller monitor is written once, over any numbers with the arithmetic
and ordering operators: ``waynet.intervals`` evaluates it over intervals,
whose comparisons raise ``Undecided`` when they hold for some points of their
operands and fail for others.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from waynet.core import Params, RelWaypoint, inf_norm


class Clause(enum.Enum):
    """First violated clause of a monitor formula, for diagnostics and metrics."""

    NONE = "none"
    ANN_SCALE = "ann_scale"          # |k| * eps <= 1
    ANN_BAND = "ann_band"            # |k (x^2+y^2-eps^2)/2 - y| < eps
    AHEAD = "ahead"                  # x > 0
    LIMITS_ORDER = "limits_order"    # 0 <= vl < vh
    LIMIT_GAP_A = "limit_gap_a"      # A T <= vh - vl
    LIMIT_GAP_B = "limit_gap_b"      # B T <= vh - vl
    ACCEL_RANGE = "accel_range"      # -B <= a <= A
    NON_NEG_SPEED = "non_neg_speed"  # v + a T >= 0
    UPPER_SPEED = "upper_speed"      # upper-limit clause (vh side)
    LOWER_SPEED = "lower_speed"      # lower-limit clause (vl side)
    CYCLE_TIME = "cycle_time"        # elapsed <= T
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


def _fail(clause: Clause) -> MonitorVerdict:
    return MonitorVerdict(False, clause)


def ann_residual(x: float, y: float, k: float, eps: float) -> float:
    """Signed distance-like residual of the annulus band: k(x^2+y^2-eps^2)/2 - y."""
    return k * (x * x + y * y - eps * eps) / 2.0 - y


def ann_clause(wp: RelWaypoint, eps: float, slack: float = 0.0) -> Clause:
    """Annulus membership with failure attribution; Clause.NONE on pass."""
    if abs(wp.k) * eps > 1.0 + slack:
        return Clause.ANN_SCALE
    if not abs(ann_residual(wp.x, wp.y, wp.k, eps)) < eps + slack:
        return Clause.ANN_BAND
    return Clause.NONE


def feas(wp: RelWaypoint, p: Params) -> MonitorVerdict:
    """Physical feasibility of the declared (waypoint, curvature, limits)."""
    c = ann_clause(wp, p.tol)
    if c is not Clause.NONE:
        return _fail(c)
    if not wp.x > 0.0:
        return _fail(Clause.AHEAD)
    if not (0.0 <= wp.vl < wp.vh):
        return _fail(Clause.LIMITS_ORDER)
    gap = wp.vh - wp.vl
    if not p.accel_max * p.cycle_max <= gap:
        return _fail(Clause.LIMIT_GAP_A)
    if not p.brake_max * p.cycle_max <= gap:
        return _fail(Clause.LIMIT_GAP_B)
    return PASS


def delta_lim(v1: float, v2: float, acc: float, k: float, eps: float) -> float:
    """Distance bound to change speed v1 -> v2 at acceleration magnitude acc,
    bloated by (1+|k|eps)^2 for the annulus width around a curved path."""
    if not acc > 0.0:
        raise ValueError(f"delta_lim requires acc > 0, got {acc!r}")
    bloat = 1.0 + abs(k) * eps
    return bloat * bloat * (v1 * v1 - v2 * v2) / (2.0 * acc)


def lim(v1: float, v2: float, acc: float, wp: RelWaypoint, eps: float,
        slack: float = 0.0) -> bool:
    """True iff acc can close the gap v1 -> v2 before the waypoint arrives."""
    if v1 <= v2 + slack:
        return True
    return delta_lim(v1, v2, acc, wp.k, eps) + eps <= inf_norm(wp.x, wp.y) + slack


def _go_branch(wp: RelWaypoint, v: float, a: float, p: Params, upper: bool) -> bool:
    T = p.cycle_max
    v_end = v + a * T
    undecided = False
    try:
        if upper:
            if v <= wp.vh and v_end <= wp.vh:
                return True
        elif wp.vl <= v and wp.vl <= v_end:
            return True
    except Undecided:
        undecided = True  # the distance disjunct below may still decide
    if upper:
        gap_term = (v_end * v_end - wp.vh * wp.vh) / (2 * p.brake_max)
    else:
        gap_term = (wp.vl * wp.vl - v_end * v_end) / (2 * p.accel_max)
    bloat = 1.0 + abs(wp.k) * p.tol
    need = bloat * bloat * (v * T + a * T * T / 2.0 + gap_term) + p.tol
    if need <= inf_norm(wp.x, wp.y):
        return True
    if undecided:
        raise Undecided
    return False


def go(wp: RelWaypoint, v: float, a: float, p: Params) -> MonitorVerdict:
    """Admissibility of acceleration a: predicts the motion over one cycle and
    requires either in-limit speeds or enough distance to restore the limits."""
    if not (-p.brake_max <= a <= p.accel_max):
        return _fail(Clause.ACCEL_RANGE)
    if not v + a * p.cycle_max >= 0.0:
        return _fail(Clause.NON_NEG_SPEED)
    if not _go_branch(wp, v, a, p, upper=True):
        return _fail(Clause.UPPER_SPEED)
    if not _go_branch(wp, v, a, p, upper=False):
        return _fail(Clause.LOWER_SPEED)
    return PASS


def invariant_j(wp: RelWaypoint, v: float, p: Params,
                slack: float = 0.0) -> MonitorVerdict:
    """Loop invariant: annulus membership, well-formed limits, and both speed
    gaps closable with maximum acceleration / braking in the remaining distance."""
    c = ann_clause(wp, p.tol, slack)
    if c is not Clause.NONE:
        return _fail(c)
    if not (0.0 - slack <= wp.vl < wp.vh + slack):
        return _fail(Clause.LIMITS_ORDER)
    gap = wp.vh - wp.vl
    if not p.accel_max * p.cycle_max <= gap + slack:
        return _fail(Clause.LIMIT_GAP_A)
    if not p.brake_max * p.cycle_max <= gap + slack:
        return _fail(Clause.LIMIT_GAP_B)
    if not lim(wp.vl, v, p.accel_max, wp, p.tol, slack):
        return _fail(Clause.LOWER_SPEED)
    if not lim(v, wp.vh, p.brake_max, wp, p.tol, slack):
        return _fail(Clause.UPPER_SPEED)
    return PASS


def controller_monitor(wp: RelWaypoint, v: float, a: float, p: Params) -> MonitorVerdict:
    """Gate for an untrusted control proposal: feasibility and admissibility."""
    verdict = feas(wp, p)
    if not verdict:
        return verdict
    return go(wp, v, a, p)


def plant_monitor(wp: RelWaypoint, v: float, elapsed: float, p: Params) -> MonitorVerdict:
    """Check that sensed physics stayed inside the modeled dynamics for one cycle."""
    verdict = invariant_j(wp, v, p)
    if not verdict:
        return verdict
    if not elapsed <= p.cycle_max:
        return _fail(Clause.CYCLE_TIME)
    if not v >= 0.0:
        return _fail(Clause.PLANT_DOMAIN)
    return PASS


def fallback_accel(v: float, p: Params) -> float:
    """Trusted fallback: brake as hard as possible without predicting reverse
    motion at the end of the cycle, i.e. max(-B, -v/T)."""
    if v < 0.0:
        raise ValueError(f"fallback_accel requires v >= 0, got {v!r}")
    return max(-p.brake_max, -v / p.cycle_max)


@dataclass(frozen=True)
class Toy1DState:
    """1D idealized driving: distance d to the destination, current speed v,
    maximum speed V, and maximum cycle duration T."""

    d: float
    v: float
    V: float
    T: float

    def __post_init__(self):
        if self.V < 0.0:
            raise ValueError(f"Toy1DState.V must be non-negative, got {self.V!r}")
        if self.T < 0.0:
            raise ValueError(f"Toy1DState.T must be non-negative, got {self.T!r}")


def monitor_1d(s: Toy1DState, proposed_v: float) -> bool:
    """1D monitor: drive at proposed_v in [0, V] only when far enough
    (d >= T V); stopping is always allowed."""
    if proposed_v == 0.0:
        return True
    return s.d >= s.T * s.V and 0.0 <= proposed_v <= s.V


def simulate_1d(d0: float, V: float, T: float, proposals, monitored: bool = True):
    """Run the 1D episode: each cycle a proposed speed is gated by monitor_1d
    (substituting the stop fallback on rejection, when monitored) and distance
    decreases for a full cycle. Returns the list of distances after each cycle.

    ``proposals`` yields (proposed_v, cycle_duration) pairs with duration <= T.
    """
    d = d0
    trace = [d]
    for proposed_v, dt in proposals:
        s = Toy1DState(d=d, v=0.0, V=V, T=T)
        if monitored and not monitor_1d(s, proposed_v):
            proposed_v = 0.0
        d -= proposed_v * dt
        trace.append(d)
    return trace
