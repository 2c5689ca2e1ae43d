import operator
import random
from fractions import Fraction

import pytest

from waynet.core import Params, RelWaypoint
from waynet.intervals import (IntervalVerdict, Ivl, ZeroDivideInterval,
                              interval_eval_controller)
from waynet.monitor import Undecided, controller_monitor

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)


def box(x, y, k, vl, vh, v, a):
    return [Ivl(*x), Ivl(*y), Ivl(*k), Ivl(*vl), Ivl(*vh), Ivl(*v), Ivl(*a)]


def degenerate(x, y, k, vl, vh, v, a):
    return [Ivl(x), Ivl(y), Ivl(k), Ivl(vl), Ivl(vh), Ivl(v), Ivl(a)]


class TestIvl:
    def test_endpoints_are_exact_rationals(self):
        s = Ivl(0.1) + Ivl(0.2)
        assert s.lo == s.hi == Fraction(0.1) + Fraction(0.2)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Ivl(2.0, 1.0)

    def test_mul_mixed_signs(self):
        prod = Ivl(-2, 3) * Ivl(-1, 4)
        assert (prod.lo, prod.hi) == (-8, 12)

    def test_square_straddling_zero(self):
        x = Ivl(-2, 3)
        for sq in (x.square(), x * x):
            assert (sq.lo, sq.hi) == (0, 9)

    def test_comparisons_decided_when_disjoint_or_touching(self):
        lo, hi = Ivl(0, 1), Ivl(2, 3)
        assert (lo < hi, lo <= hi, lo > hi, lo >= hi) == (True, True, False, False)
        assert (hi < lo, hi <= lo, hi > lo, hi >= lo) == (False, False, True, True)
        touch = Ivl(1, 2)
        assert (lo <= touch, lo > touch, touch >= lo, touch < lo) == (True, False, True, False)
        assert (0.0 <= lo, lo < 1.5, Fraction(-1) < lo) == (True, True, True)

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

    def test_straddling_distance_boundary(self):
        v = interval_eval_controller(
            *box((10.9, 12.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0),
                 (5.0, 5.0), (-1.0, -1.0)), P)
        assert v is IntervalVerdict.UNKNOWN


def _random_state(rng):
    return (rng.uniform(-2.0, 15.0), rng.uniform(-3.0, 3.0),
            rng.uniform(-2.5, 2.5), rng.uniform(-0.5, 3.0), rng.uniform(-0.5, 4.0),
            rng.uniform(-0.5, 6.0), rng.uniform(-2.0, 2.0))


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
