import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from waynet import verify
from waynet.monitor import FAIL_UPPER_SPEED, PASS, feas, go, invariant_j
from waynet.verify import (PROGRESS_CASES, CheckReport, _quadrature_distance,
                           check_invariant_preservation, check_progress, go_oracle,
                           sample_compliant_state)


def test_sampler_emits_compliant_states():
    rng = random.Random(3)
    for _ in range(50):
        s = sample_compliant_state(rng)
        assert feas(s.wp, s.p)
        assert invariant_j(s.wp, s.v, s.p)
        assert go(s.wp, s.v, s.a, s.p)
        assert s.v + s.a * s.p.cycle_max >= 0.0


def test_sampler_without_go_requirement():
    rng = random.Random(4)
    s = sample_compliant_state(rng, require_go=False)
    assert s.a == 0.0
    assert invariant_j(s.wp, s.v, s.p)


def test_invariant_preservation_small():
    report = check_invariant_preservation(n=200, seed=1)
    assert report.ok, str(report)
    assert report.checked == 200
    assert "ok" in str(report)


def test_invariant_preservation_validates_n():
    with pytest.raises(ValueError):
        check_invariant_preservation(n=0)


@pytest.mark.parametrize("n", [0, -3])
def test_progress_and_oracle_validate_n(n):
    for case in PROGRESS_CASES:
        with pytest.raises(ValueError, match="n must be >= 1"):
            check_progress(case, n=n)
    with pytest.raises(ValueError, match="n must be >= 1"):
        go_oracle(n=n)


@pytest.mark.parametrize("case", PROGRESS_CASES)
def test_progress_cases_small(case):
    report = check_progress(case, n=150, seed=2)
    assert report.ok, str(report)


def test_progress_unknown_case():
    with pytest.raises(ValueError):
        check_progress("teleport", n=10)


def test_go_oracle_small():
    report = go_oracle(n=300, seed=5)
    assert report.ok, str(report)
    assert report.checked == 300


# The oracle's speeds, accelerations and durations, kept away from the
# subnormals, where a rounding error is no longer relative to its result.
_SPEED = st.just(0.0) | st.floats(1e-3, 50.0)
_ACCEL = st.just(0.0) | st.floats(1e-3, 5.0) | st.floats(-5.0, -1e-3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_SPEED, _ACCEL, st.floats(1e-3, 20.0))
def test_quadrature_distance_is_the_exact_integral_to_a_few_ulps(v0, a, d):
    assume(Fraction(v0) + Fraction(a) * Fraction(d) >= 0)  # speed stays non-negative
    exact = Fraction(v0) * Fraction(d) + Fraction(a) * Fraction(d) ** 2 / 2
    assert abs(Fraction(_quadrature_distance(v0, a, d)) - exact) <= 4 * Fraction(
        math.ulp(float(exact)))


@pytest.mark.parametrize("d", [0.0, -0.0, -1.0, -math.inf])
def test_quadrature_distance_is_zero_without_duration(d):
    assert _quadrature_distance(12.0, 3.0, d) == 0.0


def _go_without(term):
    """``go`` on the oracle's states, where the speed ends the cycle above the
    upper limit on a straight line, so only the upper clause decides; with one
    term of that clause's distance dropped, or none, where it must agree with
    ``go``."""
    def planted(wp, v, a, p):
        T = p.cycle_max
        v_end = v + a * T
        assert -p.brake_max <= a <= p.accel_max and v_end > wp.vh and wp.k == 0.0
        gap_term = (v_end * v_end - wp.vh * wp.vh) / (2.0 * p.brake_max)
        travel = v * T if term == "a*T*T/2" else v * T + a * T * T * 0.5
        need = travel + gap_term if term == "eps" else travel + gap_term + p.tol
        verdict = PASS if need <= abs(wp.x) or need <= abs(wp.y) else FAIL_UPPER_SPEED
        assert term or verdict is go(wp, v, a, p)
        return verdict
    return planted


@pytest.mark.parametrize("term, found", [(None, 0), ("eps", 37), ("a*T*T/2", 2)])
def test_go_oracle_catches_a_go_without_a_term(monkeypatch, term, found):
    monkeypatch.setattr(verify, "go", _go_without(term))
    assert len(go_oracle(1000, 0).violations) == found


def test_check_report_str_reports_violations():
    r = CheckReport("demo", 10, violations=(), note="fine")
    assert r.ok and "fine" in str(r)
