"""The monitor formulas in their composed form: the test oracle for the flat
bodies of ``waynet.monitor``.

Each clause is written as in the model, on the helpers ``ann_clause``,
``deltaLim`` and ``lim``, with ``go`` testing each speed limit through one
``_go_branch`` call. The differential tests require the runtime monitors to
name the same failing clause on every state, and over ``Ivl`` boxes to name
the same clause or raise the same exception.

Its constants are ints, so on ``Fraction`` inputs every term is a
``Fraction`` and the formulas are evaluated exactly: ``exact_controller_monitor``
is the real-arithmetic ``Feas ∧ Go`` on given floats. On floats, ``x / 2``
rounds the same real as ``x * 0.5``, and ``2 * B`` and ``1 + t`` are the
float operations of the flat bodies.
"""

import math
from fractions import Fraction

from waynet.core import Params, RelWaypoint, inf_norm
from waynet.monitor import PASS, Clause, MonitorVerdict, Undecided

_INF = math.inf


def _fail(clause: Clause) -> MonitorVerdict:
    return MonitorVerdict(False, clause)


def ann_clause(wp: RelWaypoint, eps: float) -> Clause:
    """Annulus membership with failure attribution; Clause.NONE on pass."""
    if abs(wp.k) * eps > 1.0:
        return Clause.ANN_SCALE
    if not abs(wp.k * (wp.x * wp.x + wp.y * wp.y - eps * eps) / 2 - wp.y) < eps:
        return Clause.ANN_BAND
    return Clause.NONE


def feas(wp: RelWaypoint, p: Params) -> MonitorVerdict:
    """Physical feasibility of the declared (waypoint, curvature, limits)."""
    c = ann_clause(wp, p.tol)
    if c is not Clause.NONE:
        return _fail(c)
    if not wp.x > 0.0:
        return _fail(Clause.AHEAD)
    if not (0.0 <= wp.vl < wp.vh < _INF):
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
    bloat = 1 + abs(k) * eps
    return bloat * bloat * (v1 * v1 - v2 * v2) / (2 * acc)


def lim(v1: float, v2: float, acc: float, wp: RelWaypoint, eps: float) -> bool:
    """True iff acc can close the gap v1 -> v2 before the waypoint arrives."""
    if v1 <= v2:
        return True
    return delta_lim(v1, v2, acc, wp.k, eps) + eps <= inf_norm(wp.x, wp.y)


def go_need(wp: RelWaypoint, v: float, a: float, p: Params, upper: bool):
    """Distance Go needs to restore the upper (or lower) limit after one cycle."""
    T = p.cycle_max
    v_end = v + a * T
    if upper:
        gap_term = (v_end * v_end - wp.vh * wp.vh) / (2 * p.brake_max)
    else:
        gap_term = (wp.vl * wp.vl - v_end * v_end) / (2 * p.accel_max)
    bloat = 1 + abs(wp.k) * p.tol
    return bloat * bloat * (v * T + a * T * T / 2 + gap_term) + p.tol


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
    need = go_need(wp, v, a, p, upper)
    # need <= max(|x|, |y|) side by side: over boxes, max(|x|, |y|) can be undecided.
    for side in (wp.x, wp.y):
        try:
            if need <= abs(side):
                return True
        except Undecided:
            undecided = True
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


def invariant_j(wp: RelWaypoint, v: float, p: Params) -> MonitorVerdict:
    """Loop invariant: annulus membership, well-formed limits, and both speed
    gaps closable with maximum acceleration / braking in the remaining distance."""
    c = ann_clause(wp, p.tol)
    if c is not Clause.NONE:
        return _fail(c)
    if not (0.0 <= wp.vl < wp.vh < _INF):
        return _fail(Clause.LIMITS_ORDER)
    gap = wp.vh - wp.vl
    if not p.accel_max * p.cycle_max <= gap:
        return _fail(Clause.LIMIT_GAP_A)
    if not p.brake_max * p.cycle_max <= gap:
        return _fail(Clause.LIMIT_GAP_B)
    if not lim(wp.vl, v, p.accel_max, wp, p.tol):
        return _fail(Clause.LOWER_SPEED)
    if not lim(v, wp.vh, p.brake_max, wp, p.tol):
        return _fail(Clause.UPPER_SPEED)
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
        return _fail(Clause.CYCLE_TIME)
    if not v >= 0.0:
        return _fail(Clause.PLANT_DOMAIN)
    return PASS


def exact_args(wp: RelWaypoint, v: float, a: float, p: Params):
    """The arguments as ``Fraction``s; raises on a non-finite float."""
    return (RelWaypoint(*map(Fraction, (wp.x, wp.y, wp.k, wp.vl, wp.vh))), Fraction(v),
            Fraction(a), Params(*map(Fraction, (p.accel_max, p.brake_max, p.cycle_max,
                                                 p.tol))))


def exact_controller_monitor(wp: RelWaypoint, v: float, a: float, p: Params) -> MonitorVerdict:
    """``Feas ∧ Go`` in real arithmetic on finite floats."""
    return controller_monitor(*exact_args(wp, v, a, p))
