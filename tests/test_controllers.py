import math
import random

import pytest

from waynet.controllers import (bang_bang, choose_accel, declared_curvature,
                                liveness_accel, pd)
from waynet.core import Params, RelWaypoint
from waynet.monitor import ann_residual, fallback_accel, go

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)


class TestCrossTrack:
    def test_zero_on_band_center(self):
        assert ann_residual(5.0, 0.0, k=0.0, eps=1.0) == 0.0

    def test_reference_residual(self):
        e = ann_residual(2.5, -3.0, k=-0.4, eps=1.0)
        assert e == pytest.approx(0.15)

    def test_sign_left_of_band(self):
        # Waypoint left of the declared straight line -> negative residual.
        assert ann_residual(5.0, 1.0, k=0.0, eps=1.0) < 0.0


class TestBangBang:
    def test_deadband_keeps_segment_curvature(self):
        assert bang_bang(5.0, 0.05, 0.0, eps=1.0, deadband=0.1,
                         k_max=0.8) == 0.0

    def test_positive_residual_steers_right(self):
        # e = -y = +0.5 for a waypoint to the right: reduce curvature.
        x, y = 5.0, -0.5
        assert ann_residual(x, y, 0.0, 1.0) == pytest.approx(0.5)
        assert bang_bang(x, y, 0.0, eps=1.0, deadband=0.1, k_max=0.8) == \
            pytest.approx(-0.8)

    def test_negative_residual_steers_left(self):
        x, y = 5.0, 0.5
        assert bang_bang(x, y, 0.0, eps=1.0, deadband=0.1, k_max=0.8) == \
            pytest.approx(0.8)

    def test_offsets_from_segment_curvature(self):
        assert bang_bang(5.0, -0.5, 0.3, eps=1.0, deadband=0.1,
                         k_max=0.8) == pytest.approx(0.3 - 0.8)


class TestPd:
    def test_reference_step(self):
        # e = -y = 0.2, prev 0.1, dt 0.1: cmd = -(0.5*0.2 + 0.05*1.0) = -0.15
        x, y = 5.0, -0.2 - 0.0
        e = ann_residual(x, y, 0.0, eps=1.0)
        assert e == pytest.approx(0.2)
        assert pd(e, prev_e=0.1, dt=0.1, k_seg=0.0, kp=0.5, kd=0.05, k_max=1.0) == \
            pytest.approx(-0.15)

    def test_clamped(self):
        assert pd(2.0, 0.0, 0.1, 0.0, 10.0, 0.0, 0.4) == -0.4
        assert pd(-2.0, 0.0, 0.1, 0.0, 10.0, 0.0, 0.4) == 0.4


class TestChooseAccel:
    def test_reaches_target_speed_when_admissible(self):
        wp = RelWaypoint(12.0, 0.0, 0.0, 1.0, 2.0)
        a = choose_accel(wp, v=1.5, p=P, target_speed=2.0)
        assert a == pytest.approx(1.0)  # (2.0 - 1.5)/0.5 = 1.0 = accel_max

    def test_brakes_when_too_fast_for_gap(self):
        wp = RelWaypoint(12.0, 0.0, 0.0, 1.0, 2.0)
        a = choose_accel(wp, v=5.0, p=P, target_speed=2.0)
        assert a == pytest.approx(-1.0)
        assert go(wp, 5.0, a, P)

    def test_contract_go_or_fallback(self):
        rng = random.Random(21)
        for _ in range(500):
            x = rng.uniform(0.7, 30.0)
            y = rng.uniform(-0.45, 0.45)
            vl = rng.uniform(0.0, 4.0)
            wp = RelWaypoint(x, y, 0.0, vl, vl + rng.uniform(0.6, 3.0))
            v = rng.uniform(0.0, 8.0)
            target = rng.uniform(0.0, 8.0)
            a = choose_accel(wp, v, P, target)
            assert go(wp, v, a, P) or a == fallback_accel(v, P)

    def test_bisection_finds_admissible_boundary(self):
        # Large accel fails the distance clause; some smaller accel passes.
        wp = RelWaypoint(11.2, 0.0, 0.0, 1.0, 2.0)
        a = choose_accel(wp, v=5.0, p=P, target_speed=10.0)
        assert go(wp, 5.0, a, P)
        assert a > -1.0  # did not need full braking


class TestLivenessAccel:
    def test_three_regimes(self):
        assert liveness_accel(0.5, 1.0, 2.0, A=1.5, B=2.5) == 1.5
        assert liveness_accel(1.5, 1.0, 2.0, A=1.5, B=2.5) == 0.0
        assert liveness_accel(3.0, 1.0, 2.0, A=1.5, B=2.5) == -2.5

    def test_boundaries_cruise(self):
        assert liveness_accel(1.0, 1.0, 2.0, 1.0, 1.0) == 0.0
        assert liveness_accel(2.0, 1.0, 2.0, 1.0, 1.0) == 0.0


class TestDeclaredCurvature:
    def test_zeroes_residual_when_admissible(self):
        x, y = 2.5, -3.0
        k = declared_curvature(x, y, k_seg=0.1, eps=1.0)
        assert ann_residual(x, y, k, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert k == pytest.approx(-0.42105, abs=1e-5)

    def test_falls_back_when_scale_clause_would_fail(self):
        # Very close lateral point needs |k| eps > 1: keep the segment curvature.
        x, y = 0.3, 1.0
        assert declared_curvature(x, y, k_seg=0.2, eps=1.0) == 0.2

    def test_inside_goal_region_keeps_segment(self):
        assert declared_curvature(0.2, 0.1, k_seg=0.4, eps=1.0) == 0.4
