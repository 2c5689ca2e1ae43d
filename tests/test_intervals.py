import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from waynet import intervals
from waynet.core import Params, RelWaypoint
from waynet.intervals import (IntervalVerdict, Ivl, NaNInterval, ZeroDivideInterval,
                              interval_eval_controller)
from waynet.monitor import Undecided, controller_monitor
from waynet.verify import sample_compliant_state

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)


def box(x, y, k, vl, vh, v, a):
    return [Ivl(*x), Ivl(*y), Ivl(*k), Ivl(*vl), Ivl(*vh), Ivl(*v), Ivl(*a)]


def degenerate(x, y, k, vl, vh, v, a):
    return [Ivl(x), Ivl(y), Ivl(k), Ivl(vl), Ivl(vh), Ivl(v), Ivl(a)]


# Fraction is the oracle: every float converts to it exactly. On the safe
# range, magnitudes within [2**-300, 2**300] (or zero), no product or quotient
# leaves the range in which the interval operations detect an exact result,
# so an exact float result must stay a point. Over every finite float, from
# the subnormals to the largest, results may overflow, underflow or lose the
# exact error check, and must still enclose the exact result.
_MAGNITUDE = st.floats(min_value=2.0 ** -300, max_value=2.0 ** 300)
_FLOAT = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(operator.neg),
                   st.sampled_from([0.1, 0.2, 0.5, 1.0, 2.0, 3.0, -0.5]))
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_LARGEST = sys.float_info.max
_SMALLEST = math.ulp(0.0)


def _is_float(q: Fraction) -> bool:
    return Fraction(float(q)) == q


def _down(q: Fraction) -> float:
    f = float(q)
    return f if Fraction(f) <= q else math.nextafter(f, -math.inf)


def _up(q: Fraction) -> float:
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _encloses(ivl: Ivl, exact) -> bool:
    return ivl.lo <= exact <= ivl.hi


def _ivls(floats):
    @st.composite
    def draw_ivl(draw):
        lo, hi = sorted((draw(floats), draw(floats)))
        return Ivl(lo, draw(st.sampled_from([lo, hi])))
    return draw_ivl()


def _assert_binary_encloses(x: Ivl, y: Ivl, name: str):
    """x op y encloses op over every endpoint pair; returns the result and the
    exact result of the last pair, or None when division by zero raised."""
    op = _BINARY[name]
    if name == "/" and y.lo <= 0.0 <= y.hi:
        with pytest.raises(ZeroDivideInterval):
            op(x, y)
        return None
    result = op(x, y)
    for a in {x.lo, x.hi}:
        for b in {y.lo, y.hi}:
            exact = op(Fraction(a), Fraction(b))
            assert _encloses(result, exact), (a, name, b, result)
    return result, exact


def _assert_square_and_abs_enclose(x: Ivl):
    """x * x and abs(x) enclose their exact images; returns
    (result, exact image of x.lo) for each."""
    checked = []
    for result, fn in ((x * x, lambda q: q * q), (abs(x), abs)):
        images = [fn(Fraction(e)) for e in (x.lo, x.hi)]
        if x.lo <= 0.0 <= x.hi:
            images.append(Fraction(0))
        assert all(_encloses(result, q) for q in images), (x, result)
        checked.append((result, images[0]))
    return checked


@settings(max_examples=400)
@given(_ivls(_FLOAT), _ivls(_FLOAT), st.sampled_from(sorted(_BINARY)))
@example(Ivl(0.1), Ivl(0.2), "+")
@example(Ivl(0.1), Ivl(0.3), "-")
@example(Ivl(0.1), Ivl(3.0), "*")
@example(Ivl(1.0), Ivl(3.0), "/")
@example(Ivl(-1.0, 1.0), Ivl(3.0, 7.0), "/")
def test_binary_ops_enclose_the_exact_result(x, y, name):
    checked = _assert_binary_encloses(x, y, name)
    if checked and x.lo == x.hi and y.lo == y.hi and _is_float(checked[1]):
        result, exact = checked
        assert result.lo == result.hi == exact, (x, name, y, result)


@settings(max_examples=1000)
@given(_ivls(_ANY_FLOAT), _ivls(_ANY_FLOAT), st.sampled_from(sorted(_BINARY)))
@example(Ivl(_LARGEST), Ivl(_LARGEST), "+")             # sum overflows
@example(Ivl(-_LARGEST), Ivl(_LARGEST), "-")
@example(Ivl(2.0 ** 1000), Ivl(2.0 ** -100), "*")       # Veltkamp split overflows
@example(Ivl(-(2.0 ** 1000)), Ivl(2.0 ** -90, 3.0), "*")
@example(Ivl(1e300), Ivl(1e300), "*")                   # product overflows
@example(Ivl(1e-200), Ivl(-1e-200, 1e-300), "*")        # product underflows
@example(Ivl(_SMALLEST), Ivl(0.5), "*")
@example(Ivl(2.0 ** -500), Ivl(2.0 ** -480), "*")       # exact, below 2**-960
@example(Ivl(1.5 * 2.0 ** -960), Ivl(0.5), "*")         # halved below 2**-960
@example(Ivl(1.5 * 2.0 ** 960), Ivl(0.5), "*")          # halved just below 2**960
@example(Ivl(1e308), Ivl(1e-10), "/")                   # quotient overflows
@example(Ivl(_SMALLEST), Ivl(3.0), "/")                 # quotient underflows
@example(Ivl(-(2.0 ** -1000)), Ivl(2.0 ** 30, _LARGEST), "/")
def test_binary_ops_enclose_the_exact_result_over_all_finite_floats(x, y, name):
    _assert_binary_encloses(x, y, name)


@settings(max_examples=400)
@given(_ivls(_FLOAT))
@example(Ivl(0.1))
@example(Ivl(-0.3, 0.1))
def test_square_and_abs_enclose_the_exact_result(x):
    for result, exact in _assert_square_and_abs_enclose(x):
        if x.lo == x.hi and _is_float(exact):
            assert result.lo == result.hi == exact, (x, result)


@settings(max_examples=400)
@given(_ivls(_ANY_FLOAT))
@example(Ivl(2.0 ** 997))                               # split overflows
@example(Ivl(-_LARGEST, _SMALLEST))                      # square overflows
@example(Ivl(_SMALLEST))                                 # square underflows
def test_square_and_abs_enclose_the_exact_result_over_all_finite_floats(x):
    _assert_square_and_abs_enclose(x)


# On the safe range TwoSum and TwoProduct are exact, so an operation on points
# gives the tightest float enclosure: the exact result rounded down and up,
# one point exactly when that result is a float. Endpoints compare with ==,
# for which -0.0 == 0.0: the sign of a zero endpoint is not part of the claim.
@settings(derandomize=True, max_examples=600, deadline=None)
@given(_FLOAT, _FLOAT, st.sampled_from(["+", "-", "*", "x * x"]))
@example(0.1, 0.2, "+")
@example(0.1, 0.1, "-")
@example(0.1, 3.0, "*")
@example(-0.0, 0.0, "*")
@example(0.1, 0.0, "x * x")
def test_point_operations_are_the_tightest_enclosure(a, c, name):
    if name == "x * x":
        x = Ivl(a)
        result, exact = x * x, Fraction(a) ** 2
    else:
        op = _BINARY[name]
        result, exact = op(Ivl(a), Ivl(c)), op(Fraction(a), Fraction(c))
    assert (result.lo, result.hi) == (_down(exact), _up(exact)), (a, name, c, result)
    assert (result.lo == result.hi) == _is_float(exact)


@st.composite
def _boxes(draw):
    lo, hi = sorted((draw(_FLOAT), draw(_FLOAT)))
    return Ivl(lo, hi)


# The box paths, bit for bit, on the safe range: each endpoint of a sum,
# difference, product or square is the exact extreme endpoint rounded in its
# direction; a quotient endpoint is the float quotient itself when exact, else
# one float outward.
@settings(derandomize=True, max_examples=800, deadline=None)
@given(_boxes(), _boxes(), st.sampled_from(["+", "-", "*", "/", "x * x"]))
@example(Ivl(-2.0, 3.0), Ivl(-1.0, 4.0), "*")
@example(Ivl(0.1, 0.3), Ivl(-0.7, -0.2), "*")
@example(Ivl(-0.3, 0.1), Ivl(0.0), "x * x")
@example(Ivl(0.1, 0.2), Ivl(3.0, 7.0), "/")
@example(Ivl(-1.0, 0.1), Ivl(-3.0, -0.5), "/")
def test_box_endpoints_are_the_rounded_exact_extremes(x, y, name):
    if name == "x * x":
        result = x * x
        images = [Fraction(e) ** 2 for e in (x.lo, x.hi)]
        if x.lo <= 0.0 <= x.hi:
            images.append(Fraction(0))
    elif name == "/" and y.lo <= 0.0 <= y.hi:
        with pytest.raises(ZeroDivideInterval):
            x / y
        return
    else:
        op = _BINARY[name]
        result = op(x, y)
        images = [op(Fraction(a), Fraction(c)) for a in (x.lo, x.hi) for c in (y.lo, y.hi)]
    least, most = min(images), max(images)
    if name == "/":
        lo, hi = float(least), float(most)
        expected = (lo if Fraction(lo) == least else math.nextafter(lo, -math.inf),
                    hi if Fraction(hi) == most else math.nextafter(hi, math.inf))
    else:
        expected = (_down(least), _up(most))
    assert (result.lo, result.hi) == expected, (x, name, y, result)


# The monitor body mixes reals into interval arithmetic (``2.0 * Ivl``,
# ``1.0 + Ivl``, ``Ivl * 0.5``). A float, int or Fraction operand, on either
# side, acts as its point interval ``Ivl(other)``: the same endpoints, or the
# same exception. A result from finite operands encloses the exact result,
# and only a division of them can raise: a real beyond the floats converts to
# an interval with an infinite endpoint, which bounds reals, so a point zero
# times it is the exact zero.
_REAL = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, _SMALLEST, -_SMALLEST,
                     _LARGEST, -_LARGEST, 0.5, 2.0]),
    st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
    st.fractions(),
    st.sampled_from([Fraction(1, 3), Fraction(-(10 ** 400), 3), Fraction(1, 10 ** 400)]),
)
_MIXED = [(name, reflected) for name in ("+", "-", "*") for reflected in (False, True)]
_MIXED.append(("/", False))


def _outcome(call):
    try:
        result = call()
    except (NaNInterval, ZeroDivideInterval) as exc:
        return type(exc)
    return result.lo, result.hi


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(_ivls(st.floats(allow_nan=False)), _REAL, st.sampled_from(_MIXED))
@example(Ivl(0.1, 0.3), 2.0, ("*", True))
@example(Ivl(0.1, 0.3), 1.0, ("+", True))
@example(Ivl(0.1, 0.3), 0.5, ("*", False))
@example(Ivl(0.1), 1.0, ("-", True))
@example(Ivl(1.0, 2.0), Fraction(1, 3), ("-", True))
@example(Ivl(-1.0, 2.0), Fraction(1, 3), ("/", False))
@example(Ivl(0.0), -0.0, ("*", True))
@example(Ivl(-math.inf, 0.0), math.inf, ("+", True))
@example(Ivl(_SMALLEST, _LARGEST), -_LARGEST, ("*", False))
@example(Ivl(0.0), 10 ** 400, ("*", False))
@example(Ivl(0.0), 10 ** 400, ("*", True))
@example(Ivl(-0.0), -(10 ** 400), ("*", True))
@example(Ivl(0.0), Fraction(10 ** 400, 3), ("*", False))
@example(Ivl(0.0), Fraction(-(10 ** 400), 3), ("*", True))
def test_real_operands_act_as_their_point_interval(x, other, case):
    name, reflected = case
    op = _BINARY[name]
    outcome = _outcome(lambda: op(other, x) if reflected else op(x, other))
    assert outcome == _outcome(lambda: op(Ivl(other), x) if reflected else op(x, Ivl(other))), \
        (x, name, other, reflected, outcome)
    finite = math.isfinite(x.lo) and math.isfinite(x.hi) and (
        type(other) is not float or math.isfinite(other))
    if finite and name != "/":
        assert type(outcome) is tuple, (x, name, other, reflected, outcome)
    if type(outcome) is tuple and finite:
        for e in (x.lo, x.hi):
            a, b = Fraction(e), Fraction(other)
            exact = op(b, a) if reflected else op(a, b)
            assert outcome[0] <= exact <= outcome[1], (x, name, other, reflected, outcome)


class TestIvl:
    def test_inexact_sum_steps_each_endpoint_outward_once(self):
        s = Ivl(0.1) + Ivl(0.2)
        exact = Fraction(0.1) + Fraction(0.2)
        assert s.lo < exact < s.hi
        assert s.hi == math.nextafter(s.lo, math.inf)

    def test_non_float_endpoints_round_outward(self):
        third = Ivl(Fraction(1, 3))
        assert third.lo < Fraction(1, 3) < third.hi

    def test_nan_endpoint_rejected(self):
        for lo, hi in ((math.nan, None), (0.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(NaNInterval):
                Ivl(lo, hi)

    @pytest.mark.parametrize("expr", [
        lambda: Ivl(math.inf) - Ivl(math.inf),
        lambda: Ivl(-math.inf, 0.0) + Ivl(math.inf),
        lambda: Ivl(0.0) * math.inf,
        lambda: Ivl(math.inf) / Ivl(1.0, math.inf),
    ])
    def test_nan_endpoint_raises(self, expr):
        with pytest.raises(NaNInterval):
            expr()

    def test_overflow_encloses(self):
        big = Ivl(1e308) + Ivl(1e308)
        assert big.lo == math.nextafter(math.inf, 0.0) and big.hi == math.inf
        tiny = Ivl(1e-200) * Ivl(1e-200)
        assert tiny.lo < 0.0 < tiny.hi

    @pytest.mark.parametrize("big", [10 ** 400, Fraction(10 ** 400, 3)])
    def test_reals_beyond_the_floats_round_to_an_infinity(self, big):
        up = (_LARGEST, math.inf)
        assert (Ivl(big).lo, Ivl(big).hi) == up
        assert (Ivl(-big).lo, Ivl(-big).hi) == (-math.inf, -_LARGEST)
        assert (Ivl(0.0, big).lo, Ivl(0.0, big).hi) == (0.0, math.inf)
        s = Ivl(1.0) + big
        assert (s.lo, s.hi) == up

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Ivl(2.0, 1.0)

    def test_mul_mixed_signs(self):
        prod = Ivl(-2, 3) * Ivl(-1, 4)
        assert (prod.lo, prod.hi) == (-8, 12)

    def test_square_straddling_zero(self):
        x = Ivl(-2, 3)
        sq = x * x
        assert (sq.lo, sq.hi) == (0, 9)

    def test_comparisons_decided_when_disjoint_or_touching(self):
        lo, hi = Ivl(0, 1), Ivl(2, 3)
        assert (lo < hi, lo <= hi, lo > hi, lo >= hi) == (True, True, False, False)
        assert (hi < lo, hi <= lo, hi > lo, hi >= lo) == (False, False, True, True)
        touch = Ivl(1, 2)
        assert (lo <= touch, lo > touch, touch >= lo, touch < lo) == (True, False, True, False)
        assert (0.0 <= lo, lo < 1.5, Fraction(-1) < lo) == (True, True, True)

    def test_comparison_with_another_real_is_exact(self):
        # The float 0.1 lies above 1/10; rounding 1/10 outward to floats
        # would put 0.1 inside it and leave the comparison undecided.
        tenth = Fraction(1, 10)
        assert (Ivl(0.1) > tenth, tenth < Ivl(0.1), Ivl(0.1) <= tenth) == (True, True, False)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_comparisons_undecided_when_overlapping(self, op):
        with pytest.raises(Undecided):
            op(Ivl(0, 2), Ivl(1, 3))

    def test_abs(self):
        a = abs(Ivl(-3, 1))
        assert (a.lo, a.hi) == (0, 3)

    def test_division_by_zero_interval_raises(self):
        with pytest.raises(ZeroDivideInterval):
            Ivl(1) / Ivl(-1, 1)

    def test_sub_and_neg(self):
        d = Ivl(1, 2) - Ivl(0, 1)
        assert (d.lo, d.hi) == (0, 2)
        n = -Ivl(1, 2)
        assert (n.lo, n.hi) == (-2, -1)


class TestVerdicts:
    def test_degenerate_pass_state(self):
        v = interval_eval_controller(*degenerate(12.0, 0.0, 0.0, 1.0, 2.0, 5.0, -1.0), P)
        assert v is IntervalVerdict.DEFINITELY_TRUE

    def test_degenerate_hard_fail(self):
        v = interval_eval_controller(*degenerate(12.0, 0.0, 0.0, 1.0, 2.0, 5.0, 2.0), P)
        assert v is IntervalVerdict.DEFINITELY_FALSE

    def test_undecided_limit_test_falls_through_to_distance(self):
        # v straddles vh, so the within-limits test is undecided; the distance
        # clause holds for every speed in the box.
        v = interval_eval_controller(
            *box((12.0, 12.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0),
                 (1.9, 2.1), (-1.0, -1.0)), P)
        assert v is IntervalVerdict.DEFINITELY_TRUE

    def test_cruise_at_the_lower_limit_is_certified(self):
        # v = vl with a = 0: v + a*T must stay the point 2.0, or the limit
        # comparison vl <= v + a*T becomes undecided.
        v = interval_eval_controller(*degenerate(12.0, 0.0, 0.0, 2.0, 4.0, 2.0, 0.0), P)
        assert v is IntervalVerdict.DEFINITELY_TRUE

    def test_distance_clause_decided_where_abs_x_and_abs_y_overlap(self):
        # |x| in [4.99, 5.01] overlaps |y| = 5, so max(|x|, |y|) is undecided;
        # need <= |y| holds on the whole box.
        v = interval_eval_controller(Ivl(4.99, 5.01), Ivl(5.0), Ivl(0.2), Ivl(1.0),
                                     Ivl(2.0), Ivl(2.5), Ivl(-1.0), P)
        assert v is IntervalVerdict.DEFINITELY_TRUE

    def test_straddling_distance_boundary(self):
        v = interval_eval_controller(
            *box((10.9, 12.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0),
                 (5.0, 5.0), (-1.0, -1.0)), P)
        assert v is IntervalVerdict.UNKNOWN


_PASSING = (12.0, 0.0, 0.0, 1.0, 2.0, 1.5, 0.0)


@given(st.integers(min_value=0, max_value=6),
       st.sampled_from([(math.inf, math.inf), (-math.inf, -math.inf),
                        (None, math.inf), (-math.inf, None)]))
def test_infinite_endpoint_is_never_certified_and_never_raises(field, ends):
    """A point infinity is the float inf, and no field of the passing state is
    certified when it is one. An interval with one infinite endpoint holds
    only reals (``waynet.intervals``), and is certified only where every real
    of it passes: ``x`` in [12, inf) on the straight ``k = 0``, whose squares
    are multiplied by the point zero ``k``."""
    assert interval_eval_controller(*degenerate(*_PASSING), P) is IntervalVerdict.DEFINITELY_TRUE
    fields = degenerate(*_PASSING)
    lo, hi = ends
    fields[field] = Ivl(_PASSING[field] if lo is None else lo,
                        _PASSING[field] if hi is None else hi)
    certified = interval_eval_controller(*fields, P) is IntervalVerdict.DEFINITELY_TRUE
    assert certified is (field == 0 and ends == (None, math.inf))


def _random_state(rng):
    return (rng.uniform(-2.0, 15.0), rng.uniform(-3.0, 3.0),
            rng.uniform(-2.5, 2.5), rng.uniform(-0.5, 3.0), rng.uniform(-0.5, 4.0),
            rng.uniform(-0.5, 6.0), rng.uniform(-2.0, 2.0))


def test_alternating_params_each_get_their_own_point_params_and_verdicts(monkeypatch):
    # 2 m/s above the upper limit, 24 m from the waypoint: a 0.5 s cycle at
    # A = B = 1 needs 23.5 m to restore the limit, a 2 s cycle at A = B = 4 25 m.
    p, q = P, Params(accel_max=4.0, brake_max=4.0, cycle_max=2.0, tol=0.5)
    state = (24.0, 0.0, 0.0, 0.0, 8.0, 10.0, 0.0)
    expected = {id(params): controller_monitor(RelWaypoint(*state[:5]), 10.0, 0.0, params).passed
                for params in (p, q)}
    assert list(expected.values()) == [True, False]
    seen = []

    def recording(wp, v, a, point_p):
        seen.append(point_p)
        return controller_monitor(wp, v, a, point_p)

    monkeypatch.setattr(intervals, "controller_monitor", recording)
    for params in (p, q, p, q, p):
        verdict = interval_eval_controller(*degenerate(*state), params)
        assert verdict is (IntervalVerdict.DEFINITELY_TRUE if expected[id(params)]
                           else IntervalVerdict.DEFINITELY_FALSE)
        fields = ("accel_max", "brake_max", "cycle_max", "tol")
        assert [(getattr(seen[-1], f).lo, getattr(seen[-1], f).hi) for f in fields] == [
            (getattr(params, f), getattr(params, f)) for f in fields]


def test_degenerate_boxes_agree_with_point_monitor():
    rng = random.Random(11)
    for _ in range(2000):
        s = _random_state(rng)
        point = bool(controller_monitor(RelWaypoint(*s[:5]), s[5], s[6], P))
        iv = interval_eval_controller(*degenerate(*s), P)
        expected = IntervalVerdict.DEFINITELY_TRUE if point else IntervalVerdict.DEFINITELY_FALSE
        assert iv is expected, f"state {s}: point={point}, interval={iv}"


def test_box_verdicts_are_sound():
    rng = random.Random(12)
    for _ in range(1000):
        center = _random_state(rng)
        widths = [rng.uniform(0.0, 0.3) for _ in range(7)]
        lohi = [(c - w, c + w) for c, w in zip(center, widths)]
        iv = interval_eval_controller(*box(*lohi), P)
        for _ in range(16):
            s = [rng.uniform(lo, hi) for lo, hi in lohi]
            point = bool(controller_monitor(RelWaypoint(*s[:5]), s[5], s[6], P))
            if iv is IntervalVerdict.DEFINITELY_TRUE:
                assert point, f"TRUE box contains failing point {s}"
            elif iv is IntervalVerdict.DEFINITELY_FALSE:
                assert not point, f"FALSE box contains passing point {s}"


# Boxes around compliant states, each of the seven fields widened by r times
# its magnitude, are mostly DefinitelyTrue, so the TRUE half of soundness rests
# on thousands of boxes. The pinned counts move when interval tightness does.
@pytest.mark.parametrize("r, certified", [(1e-6, 3000), (1e-4, 2985), (1e-2, 1444)])
def test_definitely_true_boxes_around_compliant_states_are_sound(r, certified):
    rng = random.Random(16)
    states = [sample_compliant_state(rng) for _ in range(3000)]
    count = 0
    for s in states:
        center = (s.wp.x, s.wp.y, s.wp.k, s.wp.vl, s.wp.vh, s.v, s.a)
        lohi = [(c - abs(c) * r, c + abs(c) * r) for c in center]
        if interval_eval_controller(*box(*lohi), s.p) is not IntervalVerdict.DEFINITELY_TRUE:
            continue
        count += 1
        spans = [(lo, hi - lo) for lo, hi in lohi]
        for _ in range(16):
            q = [lo + w * rng.random() for lo, w in spans]
            assert controller_monitor(RelWaypoint(*q[:5]), q[5], q[6], s.p).passed, \
                f"TRUE box {lohi} contains failing point {q}"
    assert count == certified
