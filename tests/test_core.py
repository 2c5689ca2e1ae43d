import math

import pytest
from hypothesis import given, strategies as st

from waynet.core import (Params, WorldPose, euclid_norm, inf_norm,
                         normalize_angle)


def test_inf_norm_values():
    assert inf_norm(3.0, -4.0) == 4.0
    assert inf_norm(0.0, 0.0) == 0.0
    assert inf_norm(12.0, 0.0) == 12.0


def test_euclid_norm_values():
    assert euclid_norm(3.0, 4.0) == 5.0
    assert euclid_norm(0.0, 0.0) == 0.0
    assert euclid_norm(1.0, 1.0) == pytest.approx(math.sqrt(2.0))


finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@given(finite, finite)
def test_norm_sandwich(x, y):
    lo = inf_norm(x, y)
    hi = euclid_norm(x, y)
    assert lo <= hi <= math.sqrt(2.0) * lo * (1.0 + 1e-15) + 1e-300


@pytest.mark.parametrize("field", ["accel_max", "brake_max", "cycle_max", "tol"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_params_rejects_non_positive(field, bad):
    kwargs = dict(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=1.0)
    kwargs[field] = bad
    with pytest.raises(ValueError):
        Params(**kwargs)


def test_normalize_angle_range():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert normalize_angle(2.0 * math.pi) == pytest.approx(0.0)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_normalize_angle_is_idempotent_and_bounded(psi):
    w = normalize_angle(psi)
    assert -math.pi < w <= math.pi + 1e-12
    assert normalize_angle(w) == pytest.approx(w, abs=1e-12)


def test_world_pose_normalizes_heading():
    pose = WorldPose(1.0, 2.0, 3.0 * math.pi)
    assert pose.heading == pytest.approx(math.pi)
