import math

import pytest
from hypothesis import given, strategies as st

from waynet import monitor
from waynet.core import Params, RelWaypoint
from waynet.monitor import (Clause, MonitorVerdict, ann_residual, controller_monitor,
                            fallback_accel, go, invariant_j, plant_monitor)

from monitor_ref import ann_clause, delta_lim, lim
from toy1d import Toy1DState, monitor_1d, simulate_1d

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=1.0)
P_HALF = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)


def wp(x, y, k, vl=1.0, vh=2.0):
    return RelWaypoint(x, y, k, vl, vh)


class TestAnn:
    """The annulus clauses: the oracle's ``ann_clause`` and the same first two
    clauses of ``controller_monitor`` and ``invariant_j``."""

    def test_straight_ahead(self):
        assert ann_clause(wp(5.0, 0.0, 0.0), eps=1.0) is Clause.NONE
        assert controller_monitor(wp(5.0, 0.0, 0.0), 1.5, 0.0, P)
        assert invariant_j(wp(5.0, 0.0, 0.0), 1.5, P)

    def test_curved_fig_waypoint(self):
        # residual |-0.4 * 14.25 / 2 + 3| = 0.15 < 1
        assert ann_residual(2.5, -3.0, -0.4, 1.0) == pytest.approx(0.15)
        assert ann_clause(wp(2.5, -3.0, -0.4), eps=1.0) is Clause.NONE
        assert invariant_j(wp(2.5, -3.0, -0.4), 1.5, P)

    def test_straight_declaration_misses_offset_waypoint(self):
        assert ann_residual(2.5, -3.0, 0.0, 1.0) == pytest.approx(3.0)
        assert ann_clause(wp(2.5, -3.0, 0.0), eps=1.0) is Clause.ANN_BAND
        assert invariant_j(wp(2.5, -3.0, 0.0), 1.5, P).failed_clause is Clause.ANN_BAND

    def test_scale_clause(self):
        assert ann_clause(wp(1.0, 0.0, 1.5), eps=1.0) is Clause.ANN_SCALE
        assert controller_monitor(wp(1.0, 0.0, 1.5), 1.5, 0.0, P).failed_clause is Clause.ANN_SCALE
        assert invariant_j(wp(1.0, 0.0, 1.5), 1.5, P).failed_clause is Clause.ANN_SCALE


class TestFeas:
    """Feas's clauses of ``controller_monitor``, at a speed and acceleration
    (v = 1.5 within the limits, a = 0) that pass Go."""

    def test_pass(self):
        v = controller_monitor(wp(5.0, 0.0, 0.0), 1.5, 0.0, P)
        assert v.passed and bool(v)

    def test_behind_fails_ahead(self):
        v = controller_monitor(wp(-1.0, 0.0, 0.0), 1.5, 0.0, P)
        assert not v and v.failed_clause is Clause.AHEAD

    def test_empty_interval_fails_limits_order(self):
        v = controller_monitor(wp(5.0, 0.0, 0.0, vl=2.0, vh=2.0), 1.5, 0.0, P)
        assert v.failed_clause is Clause.LIMITS_ORDER

    def test_narrow_interval_fails_gap(self):
        v = controller_monitor(wp(5.0, 0.0, 0.0, vl=1.0, vh=1.2), 1.5, 0.0, P)
        assert v.failed_clause is Clause.LIMIT_GAP_A

    def test_band_miss_attributed(self):
        v = controller_monitor(wp(2.5, -3.0, 0.0), 1.5, 0.0, P)
        assert v.failed_clause is Clause.ANN_BAND


class TestDeltaLim:
    """The oracle's distance bound deltaLim, which ``invariant_j`` writes inline."""

    def test_straight(self):
        assert delta_lim(3.0, 1.0, 1.0, k=0.0, eps=1.0) == pytest.approx(4.0)

    def test_zero_gap(self):
        assert delta_lim(2.0, 2.0, 0.7, k=0.3, eps=1.0) == 0.0

    def test_curvature_bloat_factor_four(self):
        assert delta_lim(3.0, 1.0, 1.0, k=1.0, eps=1.0) == pytest.approx(16.0)

    def test_requires_positive_acc(self):
        with pytest.raises(ValueError):
            delta_lim(3.0, 1.0, 0.0, k=0.0, eps=1.0)


class TestLim:
    """The oracle's lim and the lower-speed clause of ``invariant_j`` it stands for."""

    def test_first_disjunct(self):
        assert lim(1.0, 5.0, 1.0, wp(0.01, 0.0, 0.0), eps=1.0)

    def test_distance_clause(self):
        # delta_lim = 4, 4 + 0.5 = 4.5 <= 5
        assert lim(3.0, 1.0, 1.0, wp(5.0, 0.0, 0.0), eps=0.5)
        assert not lim(3.0, 1.0, 1.0, wp(4.0, 0.0, 0.0), eps=0.5)
        # The same gap below vl = 3 at v = 1, with A = 1 and eps = 0.5.
        assert invariant_j(wp(5.0, 0.0, 0.0, vl=3.0, vh=4.0), 1.0, P_HALF)
        assert invariant_j(wp(4.0, 0.0, 0.0, vl=3.0, vh=4.0), 1.0, P_HALF).failed_clause \
            is Clause.LOWER_SPEED


class TestGo:
    def test_within_limits_zero_accel(self):
        assert go(wp(5.0, 0.0, 0.0), v=1.5, a=0.0, p=P)

    def test_distance_pass(self):
        # distance-at-T 2.375 + (4.5^2 - 2^2)/2 = 10.5; 10.5 + 0.5 = 11 <= 12
        assert go(wp(12.0, 0.0, 0.0), v=5.0, a=-1.0, p=P_HALF)

    def test_distance_fail_upper(self):
        v = go(wp(10.9, 0.0, 0.0), v=5.0, a=-1.0, p=P_HALF)
        assert v.failed_clause is Clause.UPPER_SPEED

    def test_accel_range(self):
        v = go(wp(12.0, 0.0, 0.0), v=5.0, a=2.0, p=P_HALF)
        assert v.failed_clause is Clause.ACCEL_RANGE

    def test_non_negative_end_speed(self):
        v = go(wp(12.0, 0.0, 0.0), v=0.3, a=-1.0, p=P)
        assert v.failed_clause is Clause.NON_NEG_SPEED


class TestInvariantJ:
    def test_within_limits(self):
        assert invariant_j(wp(12.0, 0.0, 0.0), v=1.5, p=P_HALF)

    def test_above_limit_with_room(self):
        # deltaLim(5, 2, 1) = 10.5; 10.5 + 0.5 <= 12
        assert invariant_j(wp(12.0, 0.0, 0.0), v=5.0, p=P_HALF)

    def test_above_limit_too_close(self):
        v = invariant_j(wp(3.0, 0.0, 0.0), v=5.0, p=P_HALF)
        assert v.failed_clause is Clause.UPPER_SPEED

    def test_below_limit_too_close_is_lower_speed(self):
        v = invariant_j(wp(0.3, 0.0, 0.0, vl=5.0, vh=6.0), v=0.0, p=P_HALF)
        assert v.failed_clause is Clause.LOWER_SPEED

    def test_marginal_band_violation_fails_exactly(self):
        boundary = wp(5.0, 1.0 + 5e-10, 0.0)  # residual eps + 5e-10
        assert invariant_j(boundary, v=1.5, p=P).failed_clause is Clause.ANN_BAND


class TestPlantMonitor:
    def test_pass(self):
        assert plant_monitor(wp(12.0, 0.0, 0.0), v=1.5, elapsed=0.4, p=P_HALF)

    def test_cycle_time(self):
        v = plant_monitor(wp(12.0, 0.0, 0.0), v=1.5, elapsed=0.6, p=P_HALF)
        assert v.failed_clause is Clause.CYCLE_TIME

    def test_plant_domain(self):
        v = plant_monitor(wp(12.0, 0.0, 0.0), v=-0.1, elapsed=0.4, p=P_HALF)
        assert v.failed_clause is Clause.PLANT_DOMAIN


class TestFallback:
    def test_full_braking(self):
        assert fallback_accel(5.0, P) == pytest.approx(-1.0)

    def test_stop_at_cycle_end(self):
        assert fallback_accel(0.3, P) == pytest.approx(-0.6)

    def test_already_stopped(self):
        assert fallback_accel(0.0, P) == 0.0

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            fallback_accel(-0.1, P)


def test_controller_monitor_composes_feas_then_go():
    assert controller_monitor(wp(12.0, 0.0, 0.0), 5.0, -1.0, P_HALF)
    assert controller_monitor(wp(-1.0, 0.0, 0.0), 1.5, 0.0, P).failed_clause is Clause.AHEAD
    assert controller_monitor(wp(10.9, 0.0, 0.0), 5.0, -1.0, P_HALF).failed_clause \
        is Clause.UPPER_SPEED


def test_monitor_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        MonitorVerdict(True, Clause.AHEAD)
    with pytest.raises(ValueError):
        MonitorVerdict(False, Clause.NONE)


@pytest.mark.parametrize("clause", [c for c in Clause if c is not Clause.NONE],
                         ids=lambda c: c.value)
def test_shared_failing_verdict_names_its_clause(clause):
    verdict = getattr(monitor, f"FAIL_{clause.name}")
    assert verdict.passed is False
    assert verdict.failed_clause is clause
    assert not verdict


class TestToy1D:
    def test_far_enough(self):
        assert monitor_1d(Toy1DState(d=10.0, V=2.0, T=1.0), proposed_v=2.0)

    def test_too_close_must_stop(self):
        assert not monitor_1d(Toy1DState(d=1.5, V=2.0, T=1.0), proposed_v=1.0)

    def test_stopping_always_allowed(self):
        assert monitor_1d(Toy1DState(d=0.1, V=2.0, T=1.0), proposed_v=0.0)

    def test_monitored_trace_stays_non_negative(self):
        proposals = [(2.0, 1.0)] * 20
        trace = simulate_1d(d0=10.0, V=2.0, T=1.0, proposals=proposals)
        assert min(trace) >= 0.0

    def test_unmonitored_greedy_collides(self):
        proposals = [(2.0, 1.0)] * 20
        trace = simulate_1d(d0=10.0, V=2.0, T=1.0, proposals=proposals, monitored=False)
        assert min(trace) < 0.0


# Property: go's acceptance is monotone in distance -- moving the waypoint
# farther straight ahead never flips a pass into a fail.
@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=1.0, max_value=30.0),
       st.floats(min_value=0.1, max_value=20.0))
def test_go_monotone_in_distance(v, a, x, extra):
    w1 = wp(x, 0.0, 0.0)
    w2 = wp(x + extra, 0.0, 0.0)
    if go(w1, v, a, P):
        assert go(w2, v, a, P)


# Property: a non-finite field fails both point monitors and never raises.
_PASSING = [(12.0, 0.0, 0.0, 1.0, 2.0, 1.5, 0.0), (12.0, 0.0, 0.0, 2.0, 4.0, 2.0, 0.0),
            (2.5, -3.0, -0.4, 1.0, 2.0, 1.5, 0.0), (6.0, 1.0, 0.05, 0.5, 3.0, 2.5, -1.0)]
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.sampled_from(_PASSING), st.integers(min_value=0, max_value=6), _NON_FINITE)
def test_non_finite_field_fails_point_monitors(state, field, bad):
    x, y, k, vl, vh, v, a = state
    assert controller_monitor(RelWaypoint(x, y, k, vl, vh), v, a, P)
    assert plant_monitor(RelWaypoint(x, y, k, vl, vh), v, 0.4, P)
    s = list(state)
    s[field] = bad
    assert not controller_monitor(RelWaypoint(*s[:5]), s[5], s[6], P)
    elapsed = bad if field == 6 else 0.4  # the plant monitor's seventh input
    assert not plant_monitor(RelWaypoint(*s[:5]), s[5], elapsed, P)


def test_infinite_upper_limit_fails_limits_order():
    unbounded = wp(12.0, 0.0, 0.0, vl=1.0, vh=math.inf)
    assert controller_monitor(unbounded, 1.5, 0.0, P).failed_clause is Clause.LIMITS_ORDER
    assert invariant_j(unbounded, 1.5, P).failed_clause is Clause.LIMITS_ORDER
