import math

import pytest
from hypothesis import given, strategies as st

from waynet.core import Params, RelWaypoint
from waynet.monitor import (Clause, MonitorVerdict, ann_clause, ann_residual,
                            controller_monitor, delta_lim, fallback_accel, feas,
                            go, invariant_j, lim, monitor_1d, plant_monitor,
                            simulate_1d, Toy1DState)

P = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=1.0)
P_HALF = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)


def wp(x, y, k, vl=1.0, vh=2.0):
    return RelWaypoint(x, y, k, vl, vh)


class TestAnn:
    def test_straight_ahead(self):
        assert ann_clause(wp(5.0, 0.0, 0.0), eps=1.0) is Clause.NONE

    def test_curved_fig_waypoint(self):
        # residual |-0.4 * 14.25 / 2 + 3| = 0.15 < 1
        assert ann_residual(2.5, -3.0, -0.4, 1.0) == pytest.approx(0.15)
        assert ann_clause(wp(2.5, -3.0, -0.4), eps=1.0) is Clause.NONE

    def test_straight_declaration_misses_offset_waypoint(self):
        assert ann_residual(2.5, -3.0, 0.0, 1.0) == pytest.approx(3.0)
        assert ann_clause(wp(2.5, -3.0, 0.0), eps=1.0) is Clause.ANN_BAND

    def test_scale_clause(self):
        assert ann_clause(wp(1.0, 0.0, 1.5), eps=1.0) is Clause.ANN_SCALE


class TestFeas:
    def test_pass(self):
        v = feas(wp(5.0, 0.0, 0.0), P)
        assert v.passed and bool(v)

    def test_behind_fails_ahead(self):
        v = feas(wp(-1.0, 0.0, 0.0), P)
        assert not v and v.failed_clause is Clause.AHEAD

    def test_empty_interval_fails_limits_order(self):
        v = feas(wp(5.0, 0.0, 0.0, vl=2.0, vh=2.0), P)
        assert v.failed_clause is Clause.LIMITS_ORDER

    def test_narrow_interval_fails_gap(self):
        v = feas(wp(5.0, 0.0, 0.0, vl=1.0, vh=1.2), P)
        assert v.failed_clause is Clause.LIMIT_GAP_A

    def test_band_miss_attributed(self):
        v = feas(wp(2.5, -3.0, 0.0), P)
        assert v.failed_clause is Clause.ANN_BAND


class TestDeltaLim:
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
    def test_first_disjunct(self):
        assert lim(1.0, 5.0, 1.0, wp(0.01, 0.0, 0.0), eps=1.0)

    def test_distance_clause(self):
        # delta_lim = 4, 4 + 0.5 = 4.5 <= 5
        assert lim(3.0, 1.0, 1.0, wp(5.0, 0.0, 0.0), eps=0.5)
        assert not lim(3.0, 1.0, 1.0, wp(4.0, 0.0, 0.0), eps=0.5)


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

    def test_slack_absorbs_marginal_band_violation(self):
        boundary = wp(5.0, 1.0 + 5e-10, 0.0)  # residual eps + 5e-10
        assert invariant_j(boundary, v=1.5, p=P).failed_clause is Clause.ANN_BAND
        assert invariant_j(boundary, v=1.5, p=P, slack=1e-9)


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


class TestToy1D:
    def test_far_enough(self):
        assert monitor_1d(Toy1DState(d=10.0, v=0.0, V=2.0, T=1.0), proposed_v=2.0)

    def test_too_close_must_stop(self):
        assert not monitor_1d(Toy1DState(d=1.5, v=0.0, V=2.0, T=1.0), proposed_v=1.0)

    def test_stopping_always_allowed(self):
        assert monitor_1d(Toy1DState(d=0.1, v=0.0, V=2.0, T=1.0), proposed_v=0.0)

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
