"""Differential tests: the flat monitor bodies of ``waynet.monitor`` name the
same failing clause as the composed formulas of ``monitor_ref`` on finite,
non-finite and tied states, and over ``Ivl`` boxes name the same clause or
raise the same exception."""

import math

from hypothesis import example, given, settings, strategies as st

from waynet import harness, intervals, monitor
from waynet.core import Params, RelWaypoint
from waynet.intervals import Ivl, NaNInterval, ZeroDivideInterval
from waynet.monitor import Undecided
from waynet.plan import curvature_through

import monitor_ref

_P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)
_ANY = st.floats(allow_nan=False, allow_infinity=False)
_PARAMS = st.builds(Params, accel_max=st.floats(0.1, 5.0), brake_max=st.floats(0.1, 5.0),
                    cycle_max=st.floats(0.05, 1.0), tol=st.floats(0.05, 2.0))
_TIES = ("v == vl", "v == vh", "v_end == vl", "v_end == vh", "a == A", "a == -B",
         "|residual| == eps", "|k| eps == 1")


@st.composite
def _states(draw):
    """(p, [x, y, k, vl, vh, v, a, elapsed]) near the monitors' boundaries:
    mostly waypoints ahead on the residual-zeroing arc, limit gaps around
    A T and B T, and speeds and accelerations near their limits."""
    p = draw(_PARAMS)
    A, B, T, eps = p.accel_max, p.brake_max, p.cycle_max, p.tol
    dist = eps * draw(st.floats(3.0, 40.0) | st.floats(3.0, 40.0) | st.floats(0.0, 3.0))
    ang = draw(st.floats(-1.0, 1.0) | st.floats(-1.0, 1.0) | st.floats(-3.2, 3.2))
    x, y = dist * math.cos(ang), dist * math.sin(ang)
    k = curvature_through(x, y, eps) if dist > eps and draw(st.integers(0, 5)) \
        else draw(st.floats(-3.0, 3.0))
    vl = draw(st.floats(0.0, 30.0) | st.floats(0.0, 30.0) | st.floats(-1.0, 0.0))
    vh = vl + draw(st.floats(0.9, 3.0).map(lambda f: max(A, B) * T * f)
                   | st.floats(-1.0, 3.0))
    v = draw(st.floats(0.0, 45.0) | st.floats(-2.0, 2.0).map(lambda d: vl + d)
             | st.floats(-2.0, 2.0).map(lambda d: vh + d))
    a = draw(st.floats(-1.1 * B, 1.1 * A))
    elapsed = draw(st.floats(-0.1, 1.2 * T))
    return p, [x, y, k, vl, vh, v, a, elapsed]


def _tie(p, s, kind):
    x, y, k, vl, vh, v, a, elapsed = s
    if kind == "|residual| == eps":
        k, y = 0.0, -p.tol
    elif kind == "|k| eps == 1":
        k = 1.0 / p.tol
    elif kind == "v == vl":
        v = vl
    elif kind == "v == vh":
        v = vh
    elif kind == "v_end == vl":
        vl = v + a * p.cycle_max
    elif kind == "v_end == vh":
        vh = v + a * p.cycle_max
    elif kind == "a == A":
        a = p.accel_max
    else:
        a = -p.brake_max
    return [x, y, k, vl, vh, v, a, elapsed]


def _assert_same_clauses(p, s):
    x, y, k, vl, vh, v, a, elapsed = s
    wp = RelWaypoint(x, y, k, vl, vh)
    for flat, ref, args in (
            (monitor.feas, monitor_ref.feas, (wp, p)),
            (monitor.go, monitor_ref.go, (wp, v, a, p)),
            (monitor.invariant_j, monitor_ref.invariant_j, (wp, v, p)),
            (monitor.controller_monitor, monitor_ref.controller_monitor, (wp, v, a, p)),
            (monitor.plant_monitor, monitor_ref.plant_monitor, (wp, v, elapsed, p))):
        got, want = flat(*args), ref(*args)
        assert got.failed_clause is want.failed_clause, (flat.__name__, s)
        assert got.passed is want.passed


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_states(), st.none() | st.tuples(st.integers(0, 7), _ANY))
def test_finite_states_fail_the_same_clause(state, wide):
    p, s = state
    if wide is not None:  # any finite value in one field
        s[wide[0]] = wide[1]
    _assert_same_clauses(p, s)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_states(), st.integers(0, 7), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_field_fails_the_same_clause(state, field, bad):
    p, s = state
    s[field] = bad
    _assert_same_clauses(p, s)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_states(), st.sampled_from(_TIES))
# Inside the goal region no distance clause holds, so the tied speed comparison
# alone decides a speed-limit clause.
@example((_P, [0.3, 0.0, 0.0, 5.0, 6.0, 5.0, 0.0, 0.4]), "v == vl")
@example((_P, [0.3, 0.0, 0.0, 5.0, 6.0, 5.0, 0.0, 0.4]), "v == vh")
def test_tied_states_fail_the_same_clause(state, kind):
    p, s = state
    _assert_same_clauses(p, _tie(p, s, kind))


def _box_outcome(formula, box, p):
    point_p = Params(Ivl(p.accel_max), Ivl(p.brake_max), Ivl(p.cycle_max), Ivl(p.tol))
    try:
        return formula(RelWaypoint(*box[:5]), box[5], box[6], point_p).failed_clause
    except (Undecided, ZeroDivideInterval, NaNInterval) as exc:
        return type(exc)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_states(), st.sampled_from((None,) + _TIES),
       st.lists(st.floats(0.0, 0.3) | st.just(0.0), min_size=7, max_size=7))
def test_interval_boxes_fail_the_same_clause_or_raise_alike(state, kind, widths):
    p, s = state
    if kind is not None:
        s = _tie(p, s, kind)
    box = [Ivl(c - w, c + w) for c, w in zip(s, widths)]
    for flat, ref in ((monitor.controller_monitor, monitor_ref.controller_monitor),
                      (monitor.go, monitor_ref.go)):
        assert _box_outcome(flat, box, p) == _box_outcome(ref, box, p), (flat.__name__, s)


def test_monitor_bodies_take_no_defaulted_parameter():
    """No tuning knob rides on the decision path: every argument of a monitor
    is given at each call."""
    for fn in (monitor.feas, monitor.go, monitor.invariant_j, monitor.controller_monitor,
               monitor.plant_monitor):
        assert fn.__defaults__ is None, fn.__qualname__


def test_monitor_bodies_look_up_no_enum_member():
    """Each verdict on the decision path is a global bound at import; an enum
    member read or a ``_fail`` call per verdict costs over ten times more."""
    for fn in (monitor.feas, monitor.go, monitor.invariant_j, monitor.controller_monitor,
               monitor.plant_monitor, harness._gate, intervals.interval_eval_controller):
        names = set(fn.__code__.co_names)
        assert not names & {"Clause", "IntervalVerdict", "_fail"}, fn.__qualname__
