import math

import pytest
from hypothesis import given, strategies as st

from waynet.core import Params, RelWaypoint, WorldPose, inf_norm
from waynet.dynamics import arc_step
from waynet.plan import ActiveTarget


def test_inf_norm_values():
    assert inf_norm(3.0, -4.0) == 4.0
    assert inf_norm(0.0, 0.0) == 0.0
    assert inf_norm(12.0, 0.0) == 12.0


finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@given(finite, finite)
def test_norm_sandwich(x, y):
    lo = inf_norm(x, y)
    hi = math.hypot(x, y)
    assert lo <= hi <= math.sqrt(2.0) * lo * (1.0 + 1e-15) + 1e-300


@pytest.mark.parametrize("field", ["accel_max", "brake_max", "cycle_max", "tol"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf, -0.0, -5e-324])
def test_params_rejects_non_positive(field, bad):
    kwargs = dict(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=1.0)
    kwargs[field] = bad
    with pytest.raises(ValueError) as err:
        Params(**kwargs)
    assert str(err.value) == f"Params.{field} must be positive and finite, got {bad!r}"


@pytest.mark.parametrize("field", ["accel_max", "brake_max"])
def test_params_rejects_overflowing_one_cycle_terms(field):
    kwargs = dict(accel_max=1.0, brake_max=1.0, cycle_max=1e154, tol=1.0)
    with pytest.raises(ValueError) as err:
        Params(**{**kwargs, field: 1e10})
    assert str(err.value) == (f"Params.{field} * cycle_max**2 must be finite, "
                              f"got {field}=10000000000.0, cycle_max=1e+154")
    Params(**kwargs)  # 1e308: still finite


# Several faults at once: the message names the first field at fault, every
# field's own check before either product's.
_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("args, message", [
    ((_NAN, 0.0, -1.0, _INF), "Params.accel_max must be positive and finite, got nan"),
    ((1.0, -_INF, _NAN, 0.0), "Params.brake_max must be positive and finite, got -inf"),
    ((1.0, 1.0, _INF, -2.0), "Params.cycle_max must be positive and finite, got inf"),
    ((1e300, 1e300, 1e10, _NAN), "Params.tol must be positive and finite, got nan"),
    ((1e300, 1e300, 1e10, 1.0),
     "Params.accel_max * cycle_max**2 must be finite, got accel_max=1e+300, cycle_max=10000000000.0"),
    ((1.0, 1e300, 1e10, 1.0),
     "Params.brake_max * cycle_max**2 must be finite, got brake_max=1e+300, cycle_max=10000000000.0"),
])
def test_params_names_the_first_field_at_fault(args, message):
    with pytest.raises(ValueError) as err:
        Params(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("args", [(5e-324, 5e-324, 5e-324, 5e-324), (1e-300, 1.0, 1e-20, 1e-300),
                                  (1.0, 1e-200, 1e-100, 1.0)])
def test_params_accepts_tiny_values_whose_one_cycle_terms_underflow(args):
    A, B, T, _ = args
    assert min(A * T * T, B * T * T) == 0.0
    assert (Params(*args).accel_max, Params(*args).brake_max) == (A, B)


def normalize_angle(psi: float) -> float:
    """Wrap an angle to (-pi, pi], ties mapping to +pi: the oracle for the
    wrap that ``WorldPose.__init__`` does in its own body."""
    wrapped = math.fmod(psi, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


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
    assert WorldPose(0.0, 0.0, 3.0 * math.pi).heading == pytest.approx(math.pi)


@pytest.mark.parametrize("heading", [
    0.0, -0.0, math.pi, -math.pi, 7.0 * math.pi, -7.0 * math.pi, 1e6,
    math.nextafter(math.pi, math.inf), math.nextafter(math.pi, -math.inf),
    -math.nextafter(math.pi, math.inf), -math.nextafter(math.pi, -math.inf),
    2.0 * math.pi, -2.0 * math.pi, 5e-324, math.nan])
def test_world_pose_trig_is_that_of_its_normalized_heading(heading):
    pose = WorldPose(1.0, -2.0, heading)
    assert pose.heading.hex() == normalize_angle(heading).hex()
    assert pose.cos.hex() == math.cos(pose.heading).hex()
    assert pose.sin.hex() == math.sin(pose.heading).hex()


@pytest.mark.parametrize("heading", [math.inf, -math.inf])
def test_world_pose_rejects_an_infinite_heading(heading):
    with pytest.raises(ValueError):
        WorldPose(0.0, 0.0, heading)


def test_world_pose_trig_takes_no_part_in_eq_or_repr():
    # The stuck rule compares poses, and a log row reads x, y and heading only.
    pose, twin = WorldPose(1.0, -2.0, 0.5), WorldPose(1.0, -2.0, 0.5)
    twin.cos, twin.sin = 2.0, 3.0
    assert pose == twin
    assert repr(twin) == repr(pose) == "WorldPose(x=1.0, y=-2.0, heading=0.5)"


def test_arc_step_pose_normalizes_heading_after_many_turns():
    # 100 full turns plus 0.5 rad on a unit circle at 1 m/s.
    pose, _, s = arc_step(WorldPose(0.0, 0.0, 0.0), 1.0, 1.0, 0.0, 200.0 * math.pi + 0.5)
    assert s == 200.0 * math.pi + 0.5
    assert -math.pi < pose.heading <= math.pi
    assert pose.heading == pytest.approx(0.5, abs=1e-9)


# Each builder returns fresh objects for the same fields, so equality cannot
# rest on identity. run_episode's stuck rule compares consecutive loop states
# (v, pose, target, ...) by value.
_VALUE_TYPES = {
    "RelWaypoint": (RelWaypoint, lambda: dict(x=4.0, y=-1.5, k=0.25, vl=1.0, vh=3.0)),
    "WorldPose": (WorldPose, lambda: dict(x=4.0, y=-1.5, heading=0.5)),
    "ActiveTarget": (ActiveTarget, lambda: dict(
        edge_index=2, target_world=(4.0, -1.5), frac=0.25,
        waypoint=RelWaypoint(4.0, -1.5, 0.25, 1.0, 3.0))),
}


def _changed(value):
    if isinstance(value, RelWaypoint):
        return RelWaypoint(value.x, value.y, value.k, value.vl, value.vh + 1.0)
    if isinstance(value, tuple):
        return (value[0], value[1] + 1.0)
    return value + 1


@pytest.mark.parametrize("name", sorted(_VALUE_TYPES))
def test_per_cycle_values_compare_by_value(name):
    cls, fields = _VALUE_TYPES[name]
    a, b = cls(**fields()), cls(**fields())
    assert a is not b
    assert a == b and not a != b
    assert a != tuple(fields().values())
    for field in fields():
        changed = fields()
        changed[field] = _changed(changed[field])
        assert cls(**changed) != a, field
