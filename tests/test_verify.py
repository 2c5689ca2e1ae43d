import random

import pytest

from waynet.monitor import feas, go, invariant_j
from waynet.verify import (PROGRESS_CASES, CheckReport, check_invariant_preservation,
                           check_progress, go_oracle, sample_compliant_state)


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


def test_check_report_str_reports_violations():
    r = CheckReport("demo", 10, violations=(), note="fine")
    assert r.ok and "fine" in str(r)
