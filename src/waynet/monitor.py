"""Monitor formulas: annulus membership, feasibility, admissibility, the loop
invariant, controller/plant monitors, and the braking fallback.

All comparisons follow the model formulas exactly: the annulus band is
strict <, the distance clauses are non-strict <=. Clause evaluation order is
fixed so failure attribution is deterministic.

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

``certified_controller_monitor`` is the controller monitor with a dynamic
filter (Brönnimann, Burnikel & Pion 2001; Shewchuk 1997) in the same pass:
it returns ``controller_monitor``'s verdict, computed by the same float
expressions in the same clause order, and a certificate that is True only
when ``Feas ∧ Go`` holds in real arithmetic on the given floats, False when
the verdict fails or the filter cannot tell. Each clause is computed once,
and the filter's margins reuse its values; only outside the speed limits
does the margin of a distance clause sit beside ``go``'s own ``need``, since
their expressions round differently. Point mode calls ``controller_monitor``
alone: its float verdict needs no certificate, which costs about 0.3 µs a
call.

In the filter, clauses with no arithmetic are exact on floats: ``x > 0``, the
limit order, ``-B <= a <= A``, ``v <= vh`` and ``vl <= v``, and so are the
comparisons of ``v + a*T`` when ``a == 0``, where it is ``v`` itself. ``|k|*eps <= 1`` needs one
product, and rounding is monotone, so a float product below 1 is a real one
below 1. Every other clause is decided by its float margin ``D``, certified
when ``D > 2**-48 * M``. The bound (Higham, ch. 3): each float operation
returns ``(x op y)(1 + d) + e`` with ``|d| <= u = 2**-53``, and ``|e| <=
u*lam``, ``lam = 2**-1022``, for products and quotients (gradual underflow;
``e = 0`` for sums, which are exact when subnormal). Expanding a margin whose
every term carries at most ``n`` factors ``(1 + d)`` gives ``|D - D_real| <=
gamma_n * M_real``, ``gamma_n = n*u/(1 - n*u)``, where ``M`` is the margin
with every operand replaced by its magnitude, ``-`` by ``+``, and ``lam``
added to each product and quotient: the absolute term for underflow. The
filter divides only by the exact ``A`` and ``B``. ``n`` is largest for a
distance clause, ``max(|x|, |y|) - (bloat**2 * (v*T + (a*T*T + gap)*0.5) +
eps)``, at 18; its ``M``, evaluated in floats, is below the real one by a
factor ``(1 - u)**m`` with ``m`` under 100, and ``2**-48 * M`` loses at most
``u`` in relative terms, or half a subnormal, to its own rounding. So ``D >
2**-48 * M`` implies ``D > gamma_18 * M_real >= |D - D_real|``, hence
``D_real > 0``. Each ``M`` dominates the magnitude of every intermediate it
covers, so an overflow, an infinity or a NaN makes ``M`` infinite or the
comparison false, and is never certified.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from waynet.core import Params, RelWaypoint

_INF = math.inf
_ERR = 2.0 ** -48    # 32u, above gamma_18 with room for M's own rounding
_LAM = 2.0 ** -1022  # smallest normal float; u*_LAM bounds a product's underflow error


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


def invariant_j(wp: RelWaypoint, v: float, p: Params) -> MonitorVerdict:
    """Loop invariant: annulus membership, well-formed limits, and both speed
    gaps closable with maximum acceleration / braking in the remaining
    distance, bloated by (1+|k|eps)^2 for the annulus width around a curved path."""
    eps = p.tol
    if abs(wp.k) * eps > 1.0:
        return FAIL_ANN_SCALE
    if not abs(ann_residual(wp.x, wp.y, wp.k, eps)) < eps:
        return FAIL_ANN_BAND
    vl, vh = wp.vl, wp.vh
    if not (0.0 <= vl < vh < _INF):
        return FAIL_LIMITS_ORDER
    gap = vh - vl
    if not p.accel_max * p.cycle_max <= gap:
        return FAIL_LIMIT_GAP_A
    if not p.brake_max * p.cycle_max <= gap:
        return FAIL_LIMIT_GAP_B
    if not vl <= v:
        bloat = 1.0 + abs(wp.k) * eps
        if not (bloat * bloat * (vl * vl - v * v) / (2.0 * p.accel_max) + eps
                <= max(abs(wp.x), abs(wp.y))):
            return FAIL_LOWER_SPEED
    if not v <= vh:
        bloat = 1.0 + abs(wp.k) * eps
        if not (bloat * bloat * (v * v - vh * vh) / (2.0 * p.brake_max) + eps
                <= max(abs(wp.x), abs(wp.y))):
            return FAIL_UPPER_SPEED
    return PASS


def controller_monitor(wp: RelWaypoint, v: float, a: float, p: Params) -> MonitorVerdict:
    """Gate for an untrusted control proposal: feasibility and admissibility."""
    verdict = feas(wp, p)
    if not verdict.passed:
        return verdict
    return go(wp, v, a, p)


def certified_controller_monitor(wp: RelWaypoint, v: float, a: float,
                                 p: Params) -> tuple[MonitorVerdict, bool]:
    """``controller_monitor``'s verdict, from the same float expressions in the
    same clause order, and whether a pass holds in real arithmetic on these
    floats; False means "cannot tell" for a pass (module docstring)."""
    x, y, k, vl, vh = wp.x, wp.y, wp.k, wp.vl, wp.vh
    A, B, T, eps = p.accel_max, p.brake_max, p.cycle_max, p.tol
    ak = abs(k)
    ke = ak * eps
    if ke > 1.0:
        return FAIL_ANN_SCALE, False
    xx, yy, ee = x * x, y * y, eps * eps
    r = abs(k * (xx + yy - ee) * 0.5 - y)
    if not r < eps:
        return FAIL_ANN_BAND, False
    if not x > 0.0:
        return FAIL_AHEAD, False
    if not (0.0 <= vl < vh < _INF):
        return FAIL_LIMITS_ORDER, False
    gap, at, bt = vh - vl, A * T, B * T
    if not at <= gap:
        return FAIL_LIMIT_GAP_A, False
    if not bt <= gap:
        return FAIL_LIMIT_GAP_B, False
    if not (-B <= a <= A):
        return FAIL_ACCEL_RANGE, False
    aT = a * T
    ve = v + aT
    if not ve >= 0.0:
        return FAIL_NON_NEG_SPEED, False
    up = v <= vh and ve <= vh
    if not up:
        bloat = 1.0 + ke
        need = bloat * bloat * (v * T + aT * T * 0.5 + (ve * ve - vh * vh) / (2.0 * B)) + eps
        if not (need <= abs(x) or need <= abs(y)):
            return FAIL_UPPER_SPEED, False
    lo = vl <= v and vl <= ve
    if not lo:
        bloat = 1.0 + ke
        need = bloat * bloat * (v * T + aT * T * 0.5 + (vl * vl - ve * ve) / (2.0 * A)) + eps
        if not (need <= abs(x) or need <= abs(y)):
            return FAIL_LOWER_SPEED, False
    # A pass in floats: certify each clause with arithmetic by its margin.
    m = at if at >= bt else bt  # max(A, B) * T: rounding is monotone
    if not (ke < 1.0
            and eps - r > _ERR * ((ak * (xx + yy + ee + 3.0 * _LAM) + _LAM) * 0.5
                                  + _LAM + abs(y) + eps)
            and gap - m > _ERR * (vh + vl + m + _LAM)):
        return PASS, False
    # up and lo are exact when a == 0, where ve is v itself; else their
    # comparisons of ve also need margins, which imply them.
    if a != 0.0:
        mv = abs(v) + abs(aT) + _LAM  # M of ve
        if not ve > _ERR * mv:
            return PASS, False
        up = up and vh - ve > _ERR * (vh + mv)
        lo = lo and ve - vl > _ERR * (mv + vl)
    if up and lo:
        return PASS, True
    mv = abs(v) + abs(aT) + _LAM
    side = max(abs(x), abs(y))
    bloat = 1.0 + ke
    b2, b2m = bloat * bloat, (bloat + _LAM) * (bloat + _LAM) + _LAM
    # The margin's need is b2 * (v*T + (a*T*T + q) * 0.5) + eps, where q is
    # twice go's gap term; a name ending in _m is the M of the value it follows.
    run, run_m = v * T, abs(v) * T + _LAM
    att, att_m = aT * T, (abs(aT) + _LAM) * T + _LAM
    if not up:
        q = (ve * ve - vh * vh) / B
        q_m = (mv * mv + vh * vh + 2.0 * _LAM) / B + _LAM
        if not (side - (b2 * (run + (att + q) * 0.5) + eps)
                > _ERR * (side + b2m * (run_m + (att_m + q_m) * 0.5 + _LAM) + _LAM + eps)):
            return PASS, False
    if not lo:
        q = (vl * vl - ve * ve) / A
        q_m = (vl * vl + mv * mv + 2.0 * _LAM) / A + _LAM
        if not (side - (b2 * (run + (att + q) * 0.5) + eps)
                > _ERR * (side + b2m * (run_m + (att_m + q_m) * 0.5 + _LAM) + _LAM + eps)):
            return PASS, False
    return PASS, True


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
