import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from waynet import dynamics
from waynet.core import WorldPose
from waynet.dynamics import (Disturbance, actuated, arc_step, closed_form_relative,
                             goal_span, to_relative)

from rk4 import from_relative, plant_derivative, step_relative


class TestPlantDerivative:
    def test_straight(self):
        assert plant_derivative(5.0, 2.0, v=1.0, a=0.3, k=0.0) == \
            (-1.0, 0.0, 0.3, 1.0)

    def test_curved(self):
        dx, dy, dv, dt = plant_derivative(1.0, 1.0, v=1.0, a=0.0, k=1.0)
        assert (dx, dy, dv, dt) == (0.0, -1.0, 0.0, 1.0)

    def test_stationary(self):
        assert plant_derivative(3.0, -2.0, v=0.0, a=0.7, k=0.4) == \
            (0.0, 0.0, 0.7, 1.0)


class TestClosedForm:
    def test_straight_line(self):
        x, y, v = closed_form_relative(5.0, 2.0, v0=1.0, a=0.0, k=0.0, t=2.0)
        assert (x, y, v) == pytest.approx((3.0, 2.0, 1.0))

    def test_quarter_turn(self):
        x, y, v = closed_form_relative(1.0, 1.0, v0=1.0, a=0.0, k=1.0, t=math.pi / 2.0)
        assert (x, y) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert v == 1.0

    def test_stop_event(self):
        x, y, v = closed_form_relative(5.0, 0.0, v0=2.0, a=-1.0, k=0.0, t=3.0)
        assert (x, y, v) == pytest.approx((3.0, 0.0, 0.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            closed_form_relative(1.0, 0.0, 1.0, 0.0, 0.0, -0.1)

    def test_tiny_curvature_matches_straight_line(self):
        sx, sy, _ = closed_form_relative(40.0, 1e-9, 10.0, 0.0, 0.0, 1.0)
        cx, cy, _ = closed_form_relative(40.0, 1e-9, 10.0, 0.0, 1e-13, 1.0)
        assert cx == pytest.approx(sx, abs=1e-9)
        assert cy == pytest.approx(sy, abs=1e-9)


def test_rk4_matches_closed_form():
    rng = random.Random(5)
    for _ in range(50):
        x0, y0 = rng.uniform(-5.0, 15.0), rng.uniform(-5.0, 5.0)
        v0 = rng.uniform(0.0, 10.0)
        a = rng.uniform(-2.0, 2.0)
        k = rng.uniform(-1.0, 1.0)
        dt = 1e-3
        arc = v0 * dt + a * dt * dt / 2.0
        ex, ey, ve = closed_form_relative(x0, y0, v0, a, k, dt)
        rx, ry, va = step_relative(x0, y0, v0, a, k, dt, substeps=1)
        err = math.hypot(ex - rx, ey - ry)
        assert err <= 1e-8 * max(abs(arc), 1e-9)
        assert va == pytest.approx(ve, abs=1e-12)


def test_rk4_radius_conservation():
    # On a circular path the distance to the rotation center is invariant.
    k = 0.5
    cy = 1.0 / k
    x, y = 3.0, -1.0
    r0 = math.hypot(x, y - cy)
    v = 2.0
    for _ in range(10_000):
        # 0.025 s is the default integrator substep (20 per 0.5 s cycle).
        x, y, v = step_relative(x, y, v, 0.0, k, 0.025, substeps=1)
    r1 = math.hypot(x, y - cy)
    assert abs(r1 - r0) / r0 <= 1e-6


class TestWorldStep:
    def test_straight(self):
        pose, v, s = arc_step(WorldPose(0.0, 0.0, 0.0), v=2.0, k=0.0, a=0.0, dt=1.0)
        assert (pose.x, pose.y, pose.heading) == pytest.approx((2.0, 0.0, 0.0))
        assert (v, s) == (2.0, 2.0)

    def test_unicycle_arc_heading(self):
        pose, _, _ = arc_step(WorldPose(0.0, 0.0, 0.0), v=1.0, k=0.5, a=0.0, dt=2.0)
        assert pose.heading == pytest.approx(1.0, abs=1e-9)

    def test_stop_event(self):
        pose, v, s = arc_step(WorldPose(0.0, 0.0, 0.0), v=1.0, k=0.0, a=-2.0, dt=3.0)
        assert v == 0.0
        assert pose.x == pytest.approx(0.25, abs=1e-9)
        assert s == pytest.approx(0.25, abs=1e-9)

    def test_frame_consistency_with_relative_integrator(self):
        # Tracking a fixed world point through the exact world step +
        # to_relative must agree with RK4 on the body-frame ODE.
        rng = random.Random(9)
        for _ in range(30):
            pose = WorldPose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
            v = rng.uniform(0.0, 8.0)
            a = rng.uniform(-2.0, 2.0)
            # Course-typical yaw rates: keep v*|k| within the benchmark envelope.
            k_cap = min(0.8, 2.0 / max(v, 0.1))
            k = rng.uniform(-k_cap, k_cap)
            world_pt = from_relative(pose, (rng.uniform(1, 10), rng.uniform(-3, 3)))
            x0, y0 = to_relative(pose, world_pt)
            pose1, _, _ = arc_step(pose, v, k, a, dt=0.5)
            x_direct, y_direct, _ = step_relative(x0, y0, v, a, k, 0.5)
            x_world, y_world = to_relative(pose1, world_pt)
            assert math.hypot(x_direct - x_world, y_direct - y_world) <= 1e-6


def _arc_distance(x, y, k, sigma):
    """Distance from the arc point at length sigma to the body-frame point
    (x, y), read off the closed-form flow."""
    x1, y1, _ = closed_form_relative(x, y, 1.0, 0.0, k, sigma)
    return math.hypot(x1, y1)


class TestGoalIntervals:
    CURVATURES = [0.0] + [sign * m for m in (1e-12, 1e-7, 1e-2, 2.0) for sign in (1, -1)]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(k=st.sampled_from(CURVATURES),
           s=st.floats(0.0, 60.0),
           eps=st.floats(0.1, 2.0),
           at=st.floats(0.0, 1.0),
           r=st.floats(0.0, 1.5),
           theta=st.floats(-math.pi, math.pi))
    # The arc meets the disk only at its last point.
    @example(k=1e-7, s=10.0, eps=1.0, at=1.0, r=1.0, theta=0.0)
    def test_matches_dense_sampling(self, k, s, eps, at, r, theta):
        # Put the target near a point of the arc so that most cases meet the
        # disk; |k| = 2 over up to 60 m wraps the circle many times.
        near, _, _ = arc_step(WorldPose(0.0, 0.0, 0.0), 1.0, k, 0.0, at * s)
        x, y = near.x + r * eps * math.cos(theta), near.y + r * eps * math.sin(theta)
        span = goal_span(x, y, k, s, eps)
        tol = 1e-9
        if span is not None:
            lo, hi = span
            assert 0.0 <= lo <= hi <= s
            # The span starts at an entry and ends at an exit (or at the arc's ends).
            for sigma in (lo, hi):
                assert _arc_distance(x, y, k, sigma) <= eps + tol
            if lo > 0.0:
                assert _arc_distance(x, y, k, lo) >= eps - tol
            if hi < s:
                assert _arc_distance(x, y, k, hi) >= eps - tol
        n = 4000
        inside = [sigma for sigma in (min(s, s * i / n) for i in range(n + 1))
                  if _arc_distance(x, y, k, sigma) < eps - tol]
        if inside:
            # The first and last samples inside the region lie within the span.
            assert span is not None, inside[0]
            assert lo <= inside[0] and inside[-1] <= hi, (inside[0], inside[-1], span)

    # |k| s > 2 pi for s above about 1.3 m (k = 5) or 0.13 m (k = 50).
    WRAPPING = [sign * m for m in (5.0, 50.0) for sign in (1, -1)]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(k=st.sampled_from(CURVATURES + WRAPPING),
           s=st.floats(0.0, 60.0),
           eps=st.floats(0.1, 2.0),
           delta=st.floats(1e-6, 0.5),
           theta=st.floats(-math.pi, math.pi))
    @example(k=50.0, s=60.0, eps=0.1, delta=1e-6, theta=0.0)
    def test_target_out_of_reach_is_a_miss(self, k, s, eps, delta, theta):
        # No point of the arc is farther than s from the origin, so a target
        # beyond s + eps is never within eps of the arc.
        d = (s + eps) * (1.0 + delta)
        x, y = d * math.cos(theta), d * math.sin(theta)
        assert goal_span(x, y, k, s, eps) is None
        n = 4000
        assert all(_arc_distance(x, y, k, min(s, s * i / n)) > eps for i in range(n + 1))

    def test_target_at_the_reach_is_met(self):
        # Straight ahead at exactly s + eps: the arc's last point is on the
        # region's edge.
        assert goal_span(11.0, 0.0, 0.0, 10.0, 1.0) == (10.0, 10.0)

    @pytest.mark.parametrize("x, y, k", [(30.0, 5.0, 0.5), (30.0, 0.0, 0.0),
                                         (-11.5, 0.0, -2.0), (math.inf, 0.0, 0.5)])
    def test_target_out_of_reach_skips_the_geometry(self, monkeypatch, x, y, k):
        def fail(*args):
            raise AssertionError("goal-region geometry ran for a target out of reach")

        for name in ("asin", "atan2", "hypot", "sqrt", "floor"):
            monkeypatch.setattr(dynamics.math, name, fail)
        assert goal_span(x, y, k, 10.0, 1.0) is None

    @pytest.mark.parametrize("x, y, k, s, eps", [
        (math.nan, 0.0, 0.5, 10.0, 1.0), (0.0, math.nan, 0.5, 10.0, 1.0),
        (2.0, 0.0, math.nan, 10.0, 1.0), (2.0, 0.0, 0.5, math.nan, 1.0),
        (2.0, 0.0, 0.5, 10.0, math.nan)])
    def test_nan_argument_is_a_miss(self, x, y, k, s, eps):
        assert goal_span(x, y, k, s, eps) is None

    def test_grazing_pass_between_substeps(self):
        # 35 m/s for a 0.5 s cycle; the chord through the disk is 0.089 m long
        # and lies between two of the 20 equally spaced points of the arc.
        eps, s = 1.0, 17.5
        x, y = 0.4375, 0.999 * eps
        lo, hi = goal_span(x, y, 0.0, s, eps)
        assert lo < x < hi
        assert not any(lo <= s * i / 20 <= hi for i in range(21))

    def test_whole_arc_inside(self):
        assert goal_span(0.0, 0.5, 2.0, 100.0, 1.0) == (0.0, 100.0)

    def test_miss(self):
        assert goal_span(5.0, 3.0, 0.0, 10.0, 1.0) is None
        assert goal_span(5.0, 3.0, 0.1, 10.0, 1.0) is None

    def test_many_turns_in_constant_time(self):
        # Spinning in place (k = 1e5 1/m) for one 35 m/s cycle with the target
        # on the edge of the goal disk: the arc wraps its circle ~278,000
        # times and is inside the disk on about half of each turn.
        start = time.perf_counter()
        lo, hi = goal_span(1.0, 0.0, 1e5, 17.5, 1.0)
        assert time.perf_counter() - start < 0.05
        assert 0.0 <= lo < 1e-4 and 17.5 - 1e-4 < hi <= 17.5
        for sigma in (lo, hi):
            assert _arc_distance(1.0, 0.0, 1e5, sigma) <= 1.0 + 1e-9


class TestFrames:
    def test_identity(self):
        rel = to_relative(WorldPose(0.0, 0.0, 0.0), (3.0, 4.0))
        assert rel == pytest.approx((3.0, 4.0))

    def test_quarter_heading(self):
        rel = to_relative(WorldPose(0.0, 0.0, math.pi / 2.0), (0.0, 5.0))
        assert rel == pytest.approx((5.0, 0.0), abs=1e-12)

    def test_translation_behind(self):
        rel = to_relative(WorldPose(1.0, 1.0, 0.0), (0.0, 1.0))
        assert rel == pytest.approx((-1.0, 0.0))

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(100):
            pose = WorldPose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                             rng.uniform(-3, 3))
            pt = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            back = from_relative(pose, to_relative(pose, pt))
            assert back == pytest.approx(pt, abs=1e-9)


class TestDisturbance:
    def test_actuation_math(self):
        d = Disturbance(curvature_gain_error=0.1, curvature_bias=0.02,
                        accel_gain_error=-0.1)
        k_act, a_act = actuated(1.0, 2.0, d)
        assert k_act == pytest.approx(1.12)
        assert a_act == pytest.approx(1.8)

    def test_zero_is_identity(self):
        assert actuated(0.7, -1.3, Disturbance()) == (0.7, -1.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Disturbance(curvature_gain_error=1.0)
        with pytest.raises(ValueError):
            Disturbance(accel_gain_error=-1.5)
        with pytest.raises(ValueError):
            Disturbance(cycle_jitter=1.0)

    @pytest.mark.parametrize("bias", [math.nan, math.inf, -math.inf])
    def test_non_finite_bias_rejected(self, bias):
        with pytest.raises(ValueError, match="curvature_bias must be finite"):
            Disturbance(curvature_bias=bias)

