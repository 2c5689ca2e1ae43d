"""End-to-end acceptance suite: safety, monitor necessity, invariant
preservation, liveness, dynamics fidelity, directional failure-rate ordering,
the 1D toy model, interval soundness, the go oracle, and CLI determinism."""

import math
import random
import time

import pytest

from waynet.cli import main as cli_main
from waynet.controllers import declared_curvature, liveness_accel
from waynet.core import Params, RelWaypoint, WorldPose, inf_norm
from waynet.dynamics import Disturbance, arc_step, closed_form_relative, to_relative
from waynet.harness import EpisodeConfig, run_episode
from waynet.intervals import IntervalVerdict, Ivl, interval_eval_controller
from waynet.monitor import controller_monitor, fallback_accel
from waynet.plan import gen_environment
from waynet.verify import (PROGRESS_CASES, check_invariant_preservation,
                           check_progress, go_oracle, sample_compliant_state)

from rk4 import from_relative, step_relative
from toy1d import simulate_1d

ENVS = ("rect", "turns", "clover")
COURSES = {env: gen_environment(env) for env in ENVS}


def _grid_seed(base: int, env: str, controller: str, index: int) -> int:
    import hashlib
    digest = hashlib.sha256(f"{base}/{env}/{controller}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- 1. Safety: monitored episodes never speed inside the goal region ---------

def test_criterion_1_safety_under_disturbance():
    disturbance = Disturbance(curvature_gain_error=0.1, curvature_bias=0.002,
                              accel_gain_error=0.1, cycle_jitter=0.1)
    start = time.perf_counter()
    total_violations = 0
    episodes = 0
    for env in ENVS:
        for controller in ("pd1", "liveness"):
            for i in range(1000):
                cfg = EpisodeConfig(COURSES[env], env, controller=controller,
                                    disturbance=disturbance,
                                    seed=_grid_seed(0, env, controller, i),
                                    collect_log=False)
                report, _ = run_episode(cfg)
                total_violations += report.safety_violations
                episodes += 1
    elapsed = time.perf_counter() - start
    assert episodes == 6000
    assert total_violations == 0
    assert elapsed < 120.0, f"safety sweep took {elapsed:.1f} s"


# -- 2. Monitor necessity ------------------------------------------------------

def test_criterion_2_monitor_necessity():
    unmonitored = 0
    monitored = 0
    for seed in range(3):
        rep_off, _ = run_episode(EpisodeConfig(COURSES["rect"], controller="adversarial",
                                               monitoring=False, seed=seed,
                                               collect_log=False))
        rep_on, _ = run_episode(EpisodeConfig(COURSES["rect"], controller="adversarial",
                                              seed=seed, collect_log=False))
        unmonitored += rep_off.safety_violations
        monitored += rep_on.safety_violations
    assert unmonitored >= 1
    assert monitored == 0


# -- 3. Invariant preservation along the exact flow ---------------------------

def test_criterion_3_invariant_preservation():
    start = time.perf_counter()
    report = check_invariant_preservation(n=10_000, seed=0)
    elapsed = time.perf_counter() - start
    assert report.ok, str(report)
    assert report.checked == 10_000
    assert elapsed < 30.0, f"invariant check took {elapsed:.1f} s"


# -- 4. Liveness: reach the goal region inside the limits ---------------------

def _pursue(sample):
    """Single-waypoint liveness pursuit in the relative frame, exact flow.
    Returns (reached inside [vl, vh], cycles used, cycle budget)."""
    wp0, v, p = sample.wp, sample.v, sample.p
    vl, vh, T, eps = wp0.vl, wp0.vh, p.cycle_max, p.tol
    x, y = wp0.x, wp0.y
    budget = int(10.0 * inf_norm(x, y) / (vl * T)) + 1
    prev_dist = math.hypot(x, y)
    for cycle in range(budget):
        if math.hypot(x, y) <= eps:
            return vl <= v <= vh, cycle, budget
        k = declared_curvature(x, y, 0.0, eps)
        wp = RelWaypoint(x, y, k, vl, vh)
        a = liveness_accel(v, vl, vh, p.accel_max, p.brake_max)
        if not controller_monitor(wp, v, a, p):
            a = fallback_accel(v, p)
        # Fine-grained goal-crossing check within the cycle.
        travel = v * T + abs(a) * T * T / 2.0
        steps = max(1, min(200, int(math.ceil(travel / (0.3 * eps)))))
        for j in range(1, steps + 1):
            xt, yt, vt = closed_form_relative(x, y, v, a, k, T * j / steps)
            if math.hypot(xt, yt) <= eps:
                return vl <= vt <= vh, cycle, budget
        x, y, v = closed_form_relative(x, y, v, a, k, T)
        dist = math.hypot(x, y)
        assert dist < prev_dist, "pursuit made no progress"
        prev_dist = dist
    return False, budget, budget


def test_criterion_4_liveness_pursuit():
    rng = random.Random(42)
    for i in range(1000):
        while True:
            s = sample_compliant_state(rng, seed=i, require_go=False)
            if s.v > 0.0 and s.wp.vl > 0.0:
                break
        reached, cycles, budget = _pursue(s)
        assert reached, f"sample {i}: not reached within {budget} cycles ({s})"
        assert cycles <= budget


def test_criterion_4_progress_strict_decrease():
    for case in PROGRESS_CASES:
        report = check_progress(case, n=300, seed=4)
        assert report.ok, str(report)


# -- 5. Dynamics fidelity ------------------------------------------------------

def test_criterion_5_radius_conservation():
    # The runtime flow, stepped 10,000 times: in the world frame the vehicle
    # stays on its circle about (0, 1/k); in the body frame a fixed point
    # stays at its distance from the rotation center (0, 1/k).
    k, dt = 0.5, 0.025
    cy = 1.0 / k
    pose, v = WorldPose(0.0, 0.0, 0.0), 2.0
    for _ in range(10_000):
        pose, v, _ = arc_step(pose, v, k, 0.0, dt)
    assert abs(math.hypot(pose.x, pose.y - cy) - cy) / cy <= 1e-6
    x, y, v = 3.0, -1.0, 2.0
    r0 = math.hypot(x, y - cy)
    for _ in range(10_000):
        x, y, v = closed_form_relative(x, y, v, 0.0, k, dt)
    assert abs(math.hypot(x, y - cy) - r0) / r0 <= 1e-6


def test_criterion_5_rk4_vs_closed_form():
    rng = random.Random(17)
    for _ in range(200):
        x0, y0 = rng.uniform(-5.0, 15.0), rng.uniform(-5.0, 5.0)
        v0 = rng.uniform(0.0, 10.0)
        a = rng.uniform(-2.0, 2.0)
        k = rng.uniform(-1.0, 1.0)
        dt = 1e-3
        arc = v0 * dt + a * dt * dt / 2.0
        ex, ey, _ = closed_form_relative(x0, y0, v0, a, k, dt)
        rx, ry, _ = step_relative(x0, y0, v0, a, k, dt, substeps=1)
        err = math.hypot(ex - rx, ey - ry)
        assert err <= 1e-8 * max(abs(arc), 1e-9)


def test_criterion_5_frame_consistency():
    rng = random.Random(23)
    for _ in range(100):
        pose = WorldPose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
        v = rng.uniform(0.0, 8.0)
        a = rng.uniform(-2.0, 2.0)
        k_cap = min(0.8, 2.0 / max(v, 0.1))
        k = rng.uniform(-k_cap, k_cap)
        world_pt = from_relative(pose, (rng.uniform(1, 10), rng.uniform(-3, 3)))
        x0, y0 = to_relative(pose, world_pt)
        pose1, _, _ = arc_step(pose, v, k, a, dt=0.5)
        x_direct, y_direct, _ = step_relative(x0, y0, v, a, k, 0.5)
        x_world, y_world = to_relative(pose1, world_pt)
        assert math.hypot(x_direct - x_world, y_direct - y_world) <= 1e-6


# -- 6. Directional failure-rate ordering --------------------------------------

def _mean_rates(env, controller, episodes=10):
    pf = cf = 0.0
    for i in range(episodes):
        rep, _ = run_episode(EpisodeConfig(COURSES[env], env, controller=controller,
                                           seed=_grid_seed(6, env, controller, i),
                                           collect_log=False))
        pf += rep.plant_fail_rate
        cf += rep.ctrl_fail_rate
    return pf / episodes, cf / episodes


def test_criterion_6_directional_table():
    for env in ("rect", "turns"):
        pf_bb, _ = _mean_rates(env, "bangbang")
        pf_pd, _ = _mean_rates(env, "pd1")
        assert pf_bb > pf_pd, f"{env}: plant failure {pf_bb:.4f} !> {pf_pd:.4f}"
    for env in ENVS:
        _, cf_pd = _mean_rates(env, "pd1")
        assert cf_pd <= 0.01, f"{env}: pd1 controller failure rate {cf_pd:.4f}"


# -- 7. 1D toy model ------------------------------------------------------------

def test_criterion_7_toy_1d_never_collides():
    rng = random.Random(7)
    V, T = 2.0, 1.0
    for _ in range(100_000):
        d0 = rng.uniform(0.0, 10.0)
        n = rng.randrange(1, 9)
        proposals = [(rng.uniform(-0.5, 1.5) * V, rng.uniform(0.0, T))
                     for _ in range(n)]
        trace = simulate_1d(d0, V, T, proposals)
        assert min(trace) >= 0.0


def test_criterion_7_unmonitored_greedy_collides():
    proposals = [(2.0, 1.0)] * 10
    trace = simulate_1d(d0=5.0, V=2.0, T=1.0, proposals=proposals, monitored=False)
    assert min(trace) < 0.0
    # And the same greedy sequence is safe when monitored.
    assert min(simulate_1d(5.0, 2.0, 1.0, proposals)) >= 0.0


# -- 8. Interval soundness -------------------------------------------------------

def test_criterion_8_interval_soundness():
    rng = random.Random(8)
    p = Params(accel_max=1.0, brake_max=1.0, cycle_max=0.5, tol=0.5)
    counts = dict.fromkeys(IntervalVerdict, 0)
    for _ in range(100_000):
        center = (rng.uniform(-2.0, 15.0), rng.uniform(-3.0, 3.0),
                  rng.uniform(-2.5, 2.5), rng.uniform(-0.5, 3.0),
                  rng.uniform(-0.5, 4.0), rng.uniform(-0.5, 6.0),
                  rng.uniform(-2.0, 2.0))
        widths = [rng.uniform(0.0, 0.2) for _ in range(7)]
        lohi = [(c - w, c + w) for c, w in zip(center, widths)]
        verdict = interval_eval_controller(*(Ivl(lo, hi) for lo, hi in lohi), p)
        counts[verdict] += 1
        if verdict is IntervalVerdict.UNKNOWN:
            continue
        # lo + w * random() is Random.uniform(lo, hi) with w computed once per box.
        spans = [(lo, hi - lo) for lo, hi in lohi]
        for _ in range(32):
            s = [lo + w * rng.random() for lo, w in spans]
            point = controller_monitor(RelWaypoint(*s[:5]), s[5], s[6], p).passed
            if verdict is IntervalVerdict.DEFINITELY_TRUE:
                assert point, f"TRUE box {lohi} contains failing point {s}"
            else:
                assert not point, f"FALSE box {lohi} contains passing point {s}"
    # Pinned so that a change in interval tightness shows.
    assert counts == {IntervalVerdict.DEFINITELY_TRUE: 17,
                      IntervalVerdict.DEFINITELY_FALSE: 82_923,
                      IntervalVerdict.UNKNOWN: 17_060}


# -- 9. Go oracle ------------------------------------------------------------------

def test_criterion_9_go_oracle():
    report = go_oracle(n=10_000, seed=0)
    assert report.ok, str(report)
    assert report.checked == 10_000


# -- 10. Determinism -----------------------------------------------------------------

def test_criterion_10_simulate_determinism(tmp_path, capsys):
    args = ["simulate", "--seed", "42", "--env", "rect", "--controller", "pd1",
            "--episodes", "3", "--disturbance", "0.05,0.002,0.05,0.1"]
    code1 = cli_main(args + ["--out", str(tmp_path / "run1")])
    out1 = capsys.readouterr().out
    code2 = cli_main(args + ["--out", str(tmp_path / "run2")])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    names1 = sorted(f.name for f in (tmp_path / "run1").iterdir())
    names2 = sorted(f.name for f in (tmp_path / "run2").iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (tmp_path / "run1" / name).read_bytes() == \
            (tmp_path / "run2" / name).read_bytes(), name
