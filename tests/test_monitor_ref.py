"""Differential tests: the flat monitor bodies of ``waynet.monitor`` name the
same failing clause as the composed formulas of ``monitor_ref`` on finite,
non-finite and tied states, and over ``Ivl`` boxes name the same clause or
raise the same exception. ``certified_controller_monitor`` returns the very
verdict of ``controller_monitor``, and certifies only states that
``monitor_ref`` passes in exact arithmetic."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from waynet import harness, intervals, monitor
from waynet.core import Params, RelWaypoint
from waynet.intervals import Ivl, NonFiniteInterval
from waynet.monitor import Undecided
from waynet.plan import curvature_through
from waynet.verify import sample_compliant_state

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
    except (Undecided, NonFiniteInterval) as exc:
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
               monitor.plant_monitor, monitor.certified_controller_monitor):
        assert fn.__defaults__ is None, fn.__qualname__


def test_monitor_bodies_look_up_no_enum_member():
    """Each verdict on the decision path is a global bound at import; an enum
    member read or a ``_fail`` call per verdict costs over ten times more."""
    for fn in (monitor.feas, monitor.go, monitor.invariant_j, monitor.controller_monitor,
               monitor.plant_monitor, monitor.certified_controller_monitor, harness._gate,
               intervals.interval_eval_controller):
        names = set(fn.__code__.co_names)
        assert not names & {"Clause", "IntervalVerdict", "_fail"}, fn.__qualname__


def test_exact_oracle_computes_its_need_terms_in_fractions():
    """On Fraction inputs every term of the reference formulas stays a
    Fraction: a float constant such as ``* 0.5`` would round them."""
    wp, v, a, p = monitor_ref.exact_args(RelWaypoint(5.0, 0.1, 0.03, 1.0, 4.0), 4.5, 0.3, _P)
    for upper in (True, False):
        assert type(monitor_ref.go_need(wp, v, a, p, upper)) is Fraction
    assert type(monitor_ref.delta_lim(v, wp.vl, p.accel_max, wp.k, p.tol)) is Fraction
    assert monitor_ref.exact_controller_monitor(RelWaypoint(5.0, 0.1, 0.0, 1.0, 4.0), 2.0, 0.3,
                                                _P).passed


@pytest.mark.parametrize("v", [1.0, 4.0])
def test_filter_certifies_cruising_at_a_limit(v):
    """At ``a == 0``, ``v + a*T`` is ``v`` itself, so its tie with a limit is
    exact and needs no margin."""
    assert monitor.certified_controller_monitor(RelWaypoint(5.0, 0.1, 0.008, 1.0, 4.0), v, 0.0,
                                                _P) == (monitor.PASS, True)


def _assert_certified_only_if_exact_pass(p, s):
    """The one pass returns ``controller_monitor``'s own verdict, and certifies
    only a pass that holds in exact arithmetic."""
    x, y, k, vl, vh, v, a = s[:7]
    wp = RelWaypoint(x, y, k, vl, vh)
    verdict, certified = monitor.certified_controller_monitor(wp, v, a, p)
    assert verdict is monitor.controller_monitor(wp, v, a, p), (p, s)
    if certified:
        assert verdict.passed and all(math.isfinite(f) for f in s[:7]), s
        assert monitor_ref.exact_controller_monitor(wp, v, a, p).passed, (p, s)
    return certified


def _split(ok, lo, hi):
    """Adjacent floats lo, hi with ok(lo) and not ok(hi), given both hold."""
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo, hi


def _float_pass(p, s):
    return monitor.controller_monitor(RelWaypoint(*s[:5]), s[5], s[6], p).passed


@st.composite
def _float_boundaries(draw):
    """(p, state) inside the float controller monitor's boundary in ``a`` or
    in ``y``, by 0 to 4,096 times the boundary's float spacing, from a state
    that satisfies ``Feas`` and ``J``. Lengths scale by 2**-e and curvatures
    by 2**e, so at e above 500 the squares of the annulus residual underflow,
    and its rounding errors are the absolute ones of subnormal products."""
    sample = sample_compliant_state(random.Random(draw(st.integers(0, 2**32 - 1))),
                                    require_go=False)
    wp, p = sample.wp, sample.p
    scale = 2.0 ** -draw(st.sampled_from((0, 0, 505, 515, 525, 535)))
    p = dataclasses.replace(p, tol=p.tol * scale)
    s = [wp.x * scale, wp.y * scale, wp.k / scale, wp.vl, wp.vh, sample.v, 0.0]
    if draw(st.booleans()):
        field, lo, hi = 6, -p.brake_max, p.accel_max
    else:  # a speed inside the limits and a == 0 pass Go, so the annulus bounds y
        s[5] = (wp.vl + wp.vh) / 2
        field, lo, hi = 1, s[1], s[1] + draw(st.sampled_from((-2.0, 2.0))) * p.tol

    def ok(value):
        return _float_pass(p, s[:field] + [value] + s[field + 1:])

    if ok(lo) and not ok(hi):
        lo, hi = _split(ok, lo, hi)
        s[field] = lo - (hi - lo) * draw(st.sampled_from((0, 1, 8, 64, 512, 4096)))
    return p, s


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_states(), st.none() | st.tuples(st.integers(0, 6), _ANY),
       st.none() | st.sampled_from(_TIES))
def test_filter_certifies_only_exact_passes(state, wide, kind):
    """Any finite float in one field, subnormals and the largest included, and
    the ties of the clauses."""
    p, s = state
    if kind is not None:
        s = _tie(p, s, kind)
    if wide is not None:
        s[wide[0]] = wide[1]
    _assert_certified_only_if_exact_pass(p, s)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_states(), st.integers(0, 6), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_filter_never_certifies_a_non_finite_field(state, field, bad):
    """Nor does the gate pass one, or build an ``Ivl`` of it, which would
    raise: the float verdict fails, and the gate returns it."""
    p, s = state
    s[field] = bad
    assert not _assert_certified_only_if_exact_pass(p, s)
    wp, v, a = RelWaypoint(*s[:5]), s[5], s[6]
    verdict = monitor.controller_monitor(wp, v, a, p)
    assert not verdict.passed
    assert harness._gate(wp, v, a, p) is verdict


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_states(), st.sampled_from(["accel_max", "brake_max", "cycle_max", "tol"]),
       st.floats(min_value=5e-324, allow_infinity=False))
def test_filter_certifies_only_exact_passes_for_any_parameter(state, name, value):
    p, s = state
    try:
        p = dataclasses.replace(p, **{name: value})
    except ValueError:  # A*T**2 or B*T**2 overflows
        assume(False)
    _assert_certified_only_if_exact_pass(p, s)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_float_boundaries())
def test_filter_certifies_only_exact_passes_at_float_boundaries(state):
    p, s = state
    _assert_certified_only_if_exact_pass(p, s)
