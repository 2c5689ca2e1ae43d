import math
import random

import pytest

from waynet.core import WorldPose
from waynet.dynamics import (Disturbance, RelPoint, ZERO_DISTURBANCE, actuated,
                             closed_form_relative, from_relative, plant_derivative,
                             step_relative, to_relative, world_step)


class TestPlantDerivative:
    def test_straight(self):
        assert plant_derivative(RelPoint(5.0, 2.0), v=1.0, a=0.3, k=0.0) == \
            (-1.0, 0.0, 0.3, 1.0)

    def test_curved(self):
        dx, dy, dv, dt = plant_derivative(RelPoint(1.0, 1.0), v=1.0, a=0.0, k=1.0)
        assert (dx, dy, dv, dt) == (0.0, -1.0, 0.0, 1.0)

    def test_stationary(self):
        assert plant_derivative(RelPoint(3.0, -2.0), v=0.0, a=0.7, k=0.4) == \
            (0.0, 0.0, 0.7, 1.0)


class TestClosedForm:
    def test_straight_line(self):
        pt, v = closed_form_relative(RelPoint(5.0, 2.0), v0=1.0, a=0.0, k=0.0, t=2.0)
        assert (pt.x, pt.y, v) == pytest.approx((3.0, 2.0, 1.0))

    def test_quarter_turn(self):
        pt, v = closed_form_relative(RelPoint(1.0, 1.0), v0=1.0, a=0.0, k=1.0,
                                     t=math.pi / 2.0)
        assert (pt.x, pt.y) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert v == 1.0

    def test_stop_event(self):
        pt, v = closed_form_relative(RelPoint(5.0, 0.0), v0=2.0, a=-1.0, k=0.0, t=3.0)
        assert (pt.x, pt.y, v) == pytest.approx((3.0, 0.0, 0.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            closed_form_relative(RelPoint(1.0, 0.0), 1.0, 0.0, 0.0, -0.1)

    def test_tiny_curvature_matches_straight_line(self):
        straight, _ = closed_form_relative(RelPoint(40.0, 1e-9), 10.0, 0.0, 0.0, 1.0)
        curved, _ = closed_form_relative(RelPoint(40.0, 1e-9), 10.0, 0.0, 1e-13, 1.0)
        assert curved.x == pytest.approx(straight.x, abs=1e-9)
        assert curved.y == pytest.approx(straight.y, abs=1e-9)


def test_rk4_matches_closed_form():
    rng = random.Random(5)
    for _ in range(50):
        pt0 = RelPoint(rng.uniform(-5.0, 15.0), rng.uniform(-5.0, 5.0))
        v0 = rng.uniform(0.0, 10.0)
        a = rng.uniform(-2.0, 2.0)
        k = rng.uniform(-1.0, 1.0)
        dt = 1e-3
        arc = v0 * dt + a * dt * dt / 2.0
        exact, ve = closed_form_relative(pt0, v0, a, k, dt)
        approx, va = step_relative(pt0, v0, a, k, dt, substeps=1)
        err = math.hypot(exact.x - approx.x, exact.y - approx.y)
        assert err <= 1e-8 * max(abs(arc), 1e-9)
        assert va == pytest.approx(ve, abs=1e-12)


def test_rk4_radius_conservation():
    # On a circular path the distance to the rotation center is invariant.
    k = 0.5
    cy = 1.0 / k
    pt = RelPoint(3.0, -1.0)
    r0 = math.hypot(pt.x, pt.y - cy)
    v = 2.0
    for _ in range(10_000):
        # 0.025 s is the default integrator substep (20 per 0.5 s cycle).
        pt, v = step_relative(pt, v, 0.0, k, 0.025, substeps=1)
    r1 = math.hypot(pt.x, pt.y - cy)
    assert abs(r1 - r0) / r0 <= 1e-6


class TestWorldStep:
    def test_straight(self):
        pose, v = world_step(WorldPose(0.0, 0.0, 0.0), v=2.0, k_cmd=0.0, a_cmd=0.0,
                             dt=1.0)
        assert (pose.x, pose.y, pose.heading) == pytest.approx((2.0, 0.0, 0.0))
        assert v == 2.0

    def test_unicycle_arc_heading(self):
        pose, _ = world_step(WorldPose(0.0, 0.0, 0.0), v=1.0, k_cmd=0.5, a_cmd=0.0,
                             dt=2.0)
        assert pose.heading == pytest.approx(1.0, abs=1e-9)

    def test_stop_event(self):
        pose, v = world_step(WorldPose(0.0, 0.0, 0.0), v=1.0, k_cmd=0.0, a_cmd=-2.0,
                             dt=3.0)
        assert v == 0.0
        assert pose.x == pytest.approx(0.25, abs=1e-9)

    def test_frame_consistency_with_relative_integrator(self):
        # Tracking a fixed world point through world_step + to_relative must
        # agree with integrating the body-frame ODE directly.
        rng = random.Random(9)
        for _ in range(30):
            pose = WorldPose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
            v = rng.uniform(0.0, 8.0)
            a = rng.uniform(-2.0, 2.0)
            # Course-typical yaw rates: keep v*|k| within the benchmark envelope.
            k_cap = min(0.8, 2.0 / max(v, 0.1))
            k = rng.uniform(-k_cap, k_cap)
            world_pt = from_relative(pose, RelPoint(rng.uniform(1, 10), rng.uniform(-3, 3)))
            rel0 = to_relative(pose, world_pt)
            pose1, _ = world_step(pose, v, k, a, dt=0.5)
            rel_direct, _ = step_relative(rel0, v, a, k, 0.5)
            rel_via_world = to_relative(pose1, world_pt)
            assert math.hypot(rel_direct.x - rel_via_world.x,
                              rel_direct.y - rel_via_world.y) <= 1e-6


class TestFrames:
    def test_identity(self):
        rel = to_relative(WorldPose(0.0, 0.0, 0.0), (3.0, 4.0))
        assert (rel.x, rel.y) == pytest.approx((3.0, 4.0))

    def test_quarter_heading(self):
        rel = to_relative(WorldPose(0.0, 0.0, math.pi / 2.0), (0.0, 5.0))
        assert (rel.x, rel.y) == pytest.approx((5.0, 0.0), abs=1e-12)

    def test_translation_behind(self):
        rel = to_relative(WorldPose(1.0, 1.0, 0.0), (0.0, 1.0))
        assert (rel.x, rel.y) == pytest.approx((-1.0, 0.0))

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
        assert actuated(0.7, -1.3, ZERO_DISTURBANCE) == (0.7, -1.3)
        assert ZERO_DISTURBANCE.is_zero

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


def test_rel_point_must_be_finite():
    with pytest.raises(ValueError):
        RelPoint(math.nan, 0.0)
    with pytest.raises(ValueError):
        RelPoint(0.0, math.inf)
