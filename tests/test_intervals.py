import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from waynet import intervals
from waynet.core import Params, RelWaypoint
from waynet.intervals import IntervalVerdict, Ivl, NonFiniteInterval, interval_eval_controller
from waynet.monitor import Undecided, controller_monitor
from waynet.verify import sample_compliant_state

import monitor_ref

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)


def box(x, y, k, vl, vh, v, a):
    return [Ivl(*x), Ivl(*y), Ivl(*k), Ivl(*vl), Ivl(*vh), Ivl(*v), Ivl(*a)]


def degenerate(x, y, k, vl, vh, v, a):
    return [Ivl(x), Ivl(y), Ivl(k), Ivl(vl), Ivl(vh), Ivl(v), Ivl(a)]


# Fraction is the oracle: every float converts to it exactly. On the safe
# range, magnitudes within [2**-300, 2**300] (or zero), no product or quotient
# leaves the range in which the interval operations detect an exact result,
# so an exact float result must stay a point. Over every finite float, from
# the subnormals to the largest, results may underflow or lose the exact error
# check, and must still enclose the exact result with finite endpoints; a
# result with no finite enclosure raises NonFiniteInterval.
_MAGNITUDE = st.floats(min_value=2.0 ** -300, max_value=2.0 ** 300)
_FLOAT = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(operator.neg),
                   st.sampled_from([0.1, 0.2, 0.5, 1.0, 2.0, 3.0, -0.5]))
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_LARGEST = sys.float_info.max
_SMALLEST = math.ulp(0.0)
# A product or quotient beyond 2**960 steps outward from its float, so one
# whose exact value rounds to the largest float steps to an infinity.
_NEAR_LARGEST = math.nextafter(_LARGEST, 0.0)


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


def _finite_enclosure(call, exacts):
    """call()'s result, whose finite endpoints enclose every exact result, or
    None when it raised NonFiniteInterval, which only an exact result beyond
    the second largest float allows."""
    try:
        result = call()
    except NonFiniteInterval:
        assert max(map(abs, exacts)) > _NEAR_LARGEST, exacts
        return None
    assert math.isfinite(result.lo) and math.isfinite(result.hi), result
    assert all(_encloses(result, q) for q in exacts), (result, exacts)
    return result


def _assert_binary_encloses(x: Ivl, y: Ivl, name: str):
    """x op y encloses op over every endpoint pair; returns the result and the
    exact result of the last pair, or None when it raised NonFiniteInterval:
    always for a divisor containing zero, else only past the largest float."""
    op = _BINARY[name]
    if name == "/" and y.lo <= 0.0 <= y.hi:
        with pytest.raises(NonFiniteInterval):
            op(x, y)
        return None
    exacts = [op(Fraction(a), Fraction(b)) for a in {x.lo, x.hi} for b in {y.lo, y.hi}]
    result = _finite_enclosure(lambda: op(x, y), exacts)
    return None if result is None else (result, exacts[-1])


def _assert_square_and_abs_enclose(x: Ivl):
    """x * x and abs(x) enclose their exact images; returns
    (result, exact image of x.lo) for each that did not raise."""
    checked = []
    for call, fn in ((lambda: x * x, lambda q: q * q), (lambda: abs(x), abs)):
        images = [fn(Fraction(e)) for e in (x.lo, x.hi)]
        if x.lo <= 0.0 <= x.hi:
            images.append(Fraction(0))
        result = _finite_enclosure(call, images)
        if result is not None:
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
@example(Ivl(_LARGEST), Ivl(_LARGEST), "+")             # sum overflows: raises
@example(Ivl(-_LARGEST), Ivl(_LARGEST), "-")
@example(Ivl(_LARGEST), Ivl(-1.0), "-")                 # rounds to the largest, exact above it
@example(Ivl(_LARGEST), Ivl(1.0), "*")                  # exact, but steps outward to inf
@example(Ivl(_LARGEST), Ivl(math.nextafter(1.0, 0.0)), "*")
@example(Ivl(2.0 ** 1000), Ivl(2.0 ** -100), "*")       # Veltkamp split overflows
@example(Ivl(-(2.0 ** 1000)), Ivl(2.0 ** -90, 3.0), "*")
@example(Ivl(1e300), Ivl(1e300), "*")                   # product overflows
@example(Ivl(1e-200), Ivl(-1e-200, 1e-300), "*")        # product underflows
@example(Ivl(_SMALLEST), Ivl(0.5), "*")
@example(Ivl(2.0 ** -500), Ivl(2.0 ** -480), "*")       # exact, below 2**-960
@example(Ivl(1.5 * 2.0 ** -960), Ivl(0.5), "*")         # halved below 2**-960
@example(Ivl(1.5 * 2.0 ** 960), Ivl(0.5), "*")          # halved just below 2**960
@example(Ivl(1e308), Ivl(1e-10), "/")                   # quotient overflows
@example(Ivl(-_LARGEST, _LARGEST), Ivl(0.5, 2.0), "/")
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
        with pytest.raises(NonFiniteInterval):
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
# ``1.0 + Ivl``, ``Ivl * 0.5``). A finite float, int or Fraction operand
# within the floats, on either side, acts as its point interval
# ``Ivl(other)``: the same endpoints, or the same exception. The result
# encloses the exact result, and raises only for a divisor containing zero or
# an exact result past the largest float.
_REAL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, _SMALLEST, -_SMALLEST, _LARGEST, -_LARGEST, 0.5, 2.0]),
    st.integers(min_value=-int(_LARGEST), max_value=int(_LARGEST)),
    st.fractions(min_value=-Fraction(_LARGEST), max_value=Fraction(_LARGEST)),
    st.sampled_from([Fraction(1, 3), Fraction(-int(_LARGEST), 3), Fraction(1, 10 ** 400)]),
)
_MIXED = [(name, reflected) for name in ("+", "-", "*") for reflected in (False, True)]
_MIXED.append(("/", False))


def _outcome(call):
    try:
        result = call()
    except NonFiniteInterval as exc:
        return type(exc)
    return result.lo, result.hi


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(_ivls(_ANY_FLOAT), _REAL, st.sampled_from(_MIXED))
@example(Ivl(0.1, 0.3), 2.0, ("*", True))
@example(Ivl(0.1, 0.3), 1.0, ("+", True))
@example(Ivl(0.1, 0.3), 0.5, ("*", False))
@example(Ivl(0.1), 1.0, ("-", True))
@example(Ivl(1.0, 2.0), Fraction(1, 3), ("-", True))
@example(Ivl(-1.0, 2.0), Fraction(1, 3), ("/", False))
@example(Ivl(0.0), -0.0, ("*", True))
@example(Ivl(_SMALLEST, _LARGEST), -_LARGEST, ("*", False))
@example(Ivl(0.0), int(_LARGEST), ("*", True))
@example(Ivl(1.0, 2.0), Fraction(1, 10 ** 400), ("/", False))
@example(Ivl(_LARGEST), int(_LARGEST), ("+", True))
def test_real_operands_act_as_their_point_interval(x, other, case):
    name, reflected = case
    op = _BINARY[name]
    outcome = _outcome(lambda: op(other, x) if reflected else op(x, other))
    assert outcome == _outcome(lambda: op(Ivl(other), x) if reflected else op(x, Ivl(other))), \
        (x, name, other, reflected, outcome)
    divisor = Ivl(other)
    if name == "/" and divisor.lo <= 0.0 <= divisor.hi:
        assert outcome is NonFiniteInterval, (x, other, outcome)
        return
    b = Fraction(other)
    exacts = [op(b, Fraction(e)) if reflected else op(Fraction(e), b) for e in (x.lo, x.hi)]
    if outcome is NonFiniteInterval:
        assert max(map(abs, exacts)) > _NEAR_LARGEST, (x, name, other, reflected)
    else:
        assert math.isfinite(outcome[0]) and math.isfinite(outcome[1]), outcome
        assert all(outcome[0] <= q <= outcome[1] for q in exacts), \
            (x, name, other, reflected, outcome)


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
            with pytest.raises(NonFiniteInterval):
                Ivl(lo, hi)

    @pytest.mark.parametrize("expr", [
        lambda: Ivl(math.inf) - Ivl(math.inf),
        lambda: Ivl(-math.inf, 0.0) + Ivl(math.inf),
        lambda: Ivl(0.0) * math.inf,
        lambda: Ivl(math.inf) / Ivl(1.0, math.inf),
    ])
    def test_nan_endpoint_raises(self, expr):
        with pytest.raises(NonFiniteInterval):
            expr()

    def test_overflow_raises_and_underflow_encloses(self):
        for overflow in (lambda: Ivl(1e308) + Ivl(1e308), lambda: Ivl(-1e200) * Ivl(1e200),
                         lambda: Ivl(1e308) / Ivl(1e-10)):
            with pytest.raises(NonFiniteInterval):
                overflow()
        tiny = Ivl(1e-200) * Ivl(1e-200)
        assert tiny.lo < 0.0 < tiny.hi

    @pytest.mark.parametrize("big", [10 ** 400, Fraction(10 ** 400, 3)], ids=["int", "fraction"])
    def test_reals_beyond_the_floats_raise(self, big):
        """Also where the exact result is finite: a point zero times such a
        real raises, as an infinity does."""
        near = int(_LARGEST) + int(math.ulp(_LARGEST)) // 4  # float() gives the largest
        for build in (lambda: Ivl(big), lambda: Ivl(-big), lambda: Ivl(0.0, big),
                      lambda: Ivl(1.0) + big, lambda: Ivl(0.0) * big, lambda: big * Ivl(-0.0),
                      lambda: Ivl(near), lambda: Ivl(-near, 0.0),
                      lambda: Ivl(big * 10 ** 5000)):  # more digits than str() will print
            with pytest.raises(NonFiniteInterval):
                build()
        assert (Ivl(int(_LARGEST)).lo, Ivl(int(_LARGEST)).hi) == (_LARGEST, _LARGEST)

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
        with pytest.raises(NonFiniteInterval):
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
       st.sampled_from([(_LARGEST, _LARGEST), (-_LARGEST, -_LARGEST),
                        (None, _LARGEST), (-_LARGEST, None)]))
def test_fields_at_the_largest_float_are_decided_soundly_and_never_raise(field, ends):
    """A field at or out to the largest float is no error: an intermediate
    that overflows makes the verdict Unknown, and a decided verdict is the
    exact oracle's at both ends of the field. ``x`` or ``y`` out to the
    largest float is Unknown, even on the straight ``k = 0``, since its
    square overflows before the point zero ``k`` multiplies it."""
    assert interval_eval_controller(*degenerate(*_PASSING), P) is IntervalVerdict.DEFINITELY_TRUE
    fields = degenerate(*_PASSING)
    lo, hi = ends
    fields[field] = Ivl(_PASSING[field] if lo is None else lo,
                        _PASSING[field] if hi is None else hi)
    verdict = interval_eval_controller(*fields, P)
    if field in (0, 1):
        assert verdict is IntervalVerdict.UNKNOWN
    if verdict is not IntervalVerdict.UNKNOWN:
        for end in (fields[field].lo, fields[field].hi):
            s = list(_PASSING)
            s[field] = end
            exact = monitor_ref.exact_controller_monitor(RelWaypoint(*s[:5]), s[5], s[6], P)
            assert exact.passed is (verdict is IntervalVerdict.DEFINITELY_TRUE), (field, ends)


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
