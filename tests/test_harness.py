import dataclasses
import importlib.util
import random
from pathlib import Path

import pytest

from waynet import cli, harness
from waynet.controllers import choose_accel, declared_curvature
from waynet.core import RelWaypoint
from waynet.dynamics import Disturbance
from waynet.harness import (CONTROLLERS, DEFAULT_PARAMS, PROFILES, EpisodeConfig, EpisodeReport,
                            LOG_HEADER, format_log, run_episode, summarize)
from waynet.intervals import interval_eval_controller
from waynet.monitor import (Clause, certified_controller_monitor, controller_monitor, go,
                            plant_monitor)
from waynet.plan import PlanGraph, gen_environment

import monitor_ref

_SPEC = importlib.util.spec_from_file_location(
    "interval_cost", Path(__file__).resolve().parents[1] / "scripts" / "interval_cost.py")
interval_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(interval_cost)

RECT = gen_environment("rect")

MILD = Disturbance(curvature_gain_error=0.05, curvature_bias=0.002,
                   accel_gain_error=0.05, cycle_jitter=0.1)
README_DISTURBANCE = Disturbance(0.1, 0.002, 0.1, 0.1)


def _states(rows):
    """Each log row without its cycle number and time."""
    return [line.split(",")[2:] for line in format_log(rows).splitlines()[1:]]


def test_known_controllers():
    assert set(CONTROLLERS) == {"bangbang", "pd1", "pd2", "pd3", "liveness",
                                "adversarial"}


def test_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(RECT, controller="rogue")
    with pytest.raises(ValueError):
        EpisodeConfig(RECT, max_cycles=0)
    with pytest.raises(TypeError):
        EpisodeConfig(environment="rect")  # the plan is required
    with pytest.raises(ValueError):
        EpisodeConfig(RECT, branch="coinflip")


@pytest.mark.parametrize("name", CONTROLLERS)
def test_each_law_is_a_pure_function_of_its_inputs(name):
    # The stuck rule assumes that a repeated loop state repeats every later
    # cycle, so a law may carry state only in the memory it returns.
    law = PROFILES[name]
    assert all(type(cell.cell_contents) is float for cell in law.__closure__ or ())
    rng = random.Random(5)
    calls = []
    for _ in range(40):
        x, y, k = rng.uniform(-3.0, 20.0), rng.uniform(-6.0, 6.0), rng.uniform(-0.3, 0.3)
        vl = rng.uniform(0.0, 3.0)
        vh = vl + rng.uniform(0.5, 5.0)
        wp = RelWaypoint(x, y, k, vl, vh)
        wp_decl = RelWaypoint(x, y, declared_curvature(x, y, k, DEFAULT_PARAMS.tol), vl, vh)
        calls.append((wp, wp_decl, rng.uniform(0.0, 9.0), DEFAULT_PARAMS,
                      rng.uniform(-2.0, 2.0)))
    first = [law(*args) for args in calls]
    assert [law(*args) for args in reversed(calls)] == first[::-1]


def test_report_validation():
    with pytest.raises(ValueError):
        EpisodeReport(True, 1, 1.0, ctrl_fail_rate=1.5, plant_fail_rate=0.0,
                      safety_violations=0, fallback_engagements=0,
                      below_vl_at_goal=0)


def test_determinism_same_seed_identical_logs():
    cfg = EpisodeConfig(RECT, "rect", controller="pd1", seed=42,
                        disturbance=MILD)
    rep1, rows1 = run_episode(cfg)
    rep2, rows2 = run_episode(cfg)
    assert rep1 == rep2
    assert format_log(rows1) == format_log(rows2)


def test_different_seed_differs_under_jitter():
    cfg_a = EpisodeConfig(RECT, "rect", controller="pd1", seed=1,
                          disturbance=MILD)
    cfg_b = EpisodeConfig(RECT, "rect", controller="pd1", seed=2,
                          disturbance=MILD)
    _, rows_a = run_episode(cfg_a)
    _, rows_b = run_episode(cfg_b)
    assert format_log(rows_a) != format_log(rows_b)


def test_rect_liveness_clean_lap():
    rep, rows = run_episode(EpisodeConfig(RECT, "rect",
                                          controller="liveness", seed=0))
    assert rep.completed
    assert rep.safety_violations == 0
    assert rep.ctrl_fail_rate == 0.0
    assert rep.avg_speed > 0.0
    assert rows[0].cycle == 0


def test_all_controllers_safe_on_rect():
    for name in ("bangbang", "pd1", "pd2", "pd3", "liveness"):
        rep, _ = run_episode(EpisodeConfig(RECT, "rect", controller=name,
                                           seed=0))
        assert rep.safety_violations == 0, name
        assert rep.completed, name


def test_adversarial_monitored_is_safe_but_gated():
    rep, _ = run_episode(EpisodeConfig(RECT, "rect",
                                       controller="adversarial", seed=0))
    assert rep.safety_violations == 0
    assert rep.ctrl_fail_rate > 0.0
    assert rep.fallback_engagements > 0


def test_adversarial_unmonitored_violates():
    total = 0
    for seed in range(3):
        rep, _ = run_episode(EpisodeConfig(RECT, "rect",
                                           controller="adversarial",
                                           monitoring=False, seed=seed))
        total += rep.safety_violations
    assert total >= 1


def test_interval_mode_matches_point_mode_on_clean_run():
    point, rows_p = run_episode(EpisodeConfig(RECT, "rect",
                                              controller="pd1", seed=7))
    interval, rows_i = run_episode(EpisodeConfig(RECT, "rect",
                                                 controller="pd1", seed=7,
                                                 interval_mode=True))
    assert interval.safety_violations == 0
    assert interval.completed == point.completed
    # Degenerate boxes: the interval gate agrees with the point monitor.
    assert format_log(rows_i) == format_log(rows_p)


@pytest.mark.parametrize("seed, boundary, inexact", [(0, 695, 451), (1, 657, 412)])
def test_interval_gate_rejects_float_boundary_states(monkeypatch, seed, boundary, inexact):
    """At Go's float boundary the float monitor passes every state, but most
    fail Go in exact arithmetic on the same floats. The one-pass gate certifies
    none of them, and intervals, run on all of them, certify none either."""
    states = interval_cost.float_boundary_states(seed)
    exact = [monitor_ref.exact_controller_monitor(*s) for s in states]
    assert len(states) == boundary
    assert all(controller_monitor(*s).passed for s in states)
    assert sum(not e.passed for e in exact) == inexact
    assert {e.failed_clause for e in exact if not e.passed} == {Clause.UPPER_SPEED}
    assert not any(certified_controller_monitor(*s)[1] for s in states)
    interval_calls = []

    def recording(*args):
        interval_calls.append(args)
        return interval_eval_controller(*args)

    monkeypatch.setattr(harness, "interval_eval_controller", recording)
    verdicts = [harness._gate(*s) for s in states]
    assert len(interval_calls) == boundary
    assert sum(v.failed_clause is Clause.INTERVAL_UNDECIDED for v in verdicts) == boundary
    assert not any(v.passed for v, e in zip(verdicts, exact) if not e.passed)


def test_filter_certifies_every_pass_of_the_interval_batch(monkeypatch, capsys):
    """The ``grid_interval`` batch at seed 1: the gate's one pass certifies all
    1,938 float passes, cruising at ``v == vl`` with ``a == 0`` included, so no
    call falls through to intervals, and the gate never calls the point
    monitor beside it."""
    gated, point_calls, interval_calls = [], [], []

    def recording(*args):
        gated.append(certified_controller_monitor(*args))
        return gated[-1]

    monkeypatch.setattr(harness, "certified_controller_monitor", recording)
    monkeypatch.setattr(harness, "controller_monitor",
                        lambda *args: point_calls.append(args))
    monkeypatch.setattr(harness, "interval_eval_controller",
                        lambda *args: interval_calls.append(args))
    assert cli.main(["simulate", "--env", "all", "--controller", "pd1,liveness,bangbang",
                     "--episodes", "2", "--disturbance", "0.1,0.002,0.1,0.1", "--seed", "1",
                     "--interval-mode"]) == 0
    passes = [certified for verdict, certified in gated if verdict.passed]
    assert (len(gated), len(passes), sum(passes)) == (1952, 1938, 1938)
    assert (len(point_calls), len(interval_calls)) == (0, 0)


def test_monitor_arguments_keep_their_values_after_the_call(monkeypatch):
    """A replay that records each monitor call's arguments by reference, as
    perfbench's ``gate`` workload does, reads them after the episode: no
    argument object may change after the call it was passed to."""
    calls = []

    def fields(arg):
        return dataclasses.astuple(arg) if dataclasses.is_dataclass(arg) else arg

    def recording(monitor):
        def recorded(*args):
            calls.append([(arg, fields(arg)) for arg in args])
            return monitor(*args)
        return recorded

    monkeypatch.setattr(harness, "controller_monitor", recording(controller_monitor))
    monkeypatch.setattr(harness, "plant_monitor", recording(plant_monitor))
    report, _ = run_episode(EpisodeConfig(gen_environment("clover"), "clover", controller="pd1",
                                          seed=1, disturbance=README_DISTURBANCE))
    # Rejections and plant failures both occur, so fallback cycles are covered.
    assert report.ctrl_fail_rate > 0.0 and report.plant_fail_rate > 0.0
    assert len(calls) > report.cycles
    for args in calls:
        for arg, snapshot in args:
            assert fields(arg) == snapshot


def test_log_format():
    _, rows = run_episode(EpisodeConfig(RECT, "rect", controller="pd1",
                                        seed=0, max_cycles=5))
    text = format_log(rows)
    lines = text.strip().split("\n")
    assert lines[0] == LOG_HEADER
    assert len(lines) == 6
    assert all(len(line.split(",")) == 15 for line in lines[1:])


def test_summarize_groups_and_totals():
    reports = []
    for seed in range(2):
        for ctrl in ("pd1", "liveness"):
            rep, _ = run_episode(EpisodeConfig(RECT, "rect",
                                               controller=ctrl, seed=seed,
                                               max_cycles=30, collect_log=False))
            reports.append(rep)
    table, rows = summarize(reports)
    assert len(rows) == 2
    assert {r["controller"] for r in rows} == {"pd1", "liveness"}
    assert all(r["episodes"] == 2 for r in rows)
    assert table.splitlines()[0].startswith("environment")


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_max_cycles_bound():
    rep, _ = run_episode(EpisodeConfig(gen_environment("clover"), "clover", controller="pd1",
                                       seed=0, max_cycles=10))
    assert rep.cycles <= 10
    assert not rep.completed


def test_stuck_episode_ends_at_its_first_repeated_cycle():
    rep, rows = run_episode(EpisodeConfig(gen_environment("clover"), "clover", "pd1",
                                          disturbance=README_DISTURBANCE, seed=1))
    states = _states(rows)
    assert not rep.completed
    assert rep.cycles == len(rows) == 51
    assert states[-1] == states[-2]
    assert all(a != b for a, b in zip(states[:-2], states[1:-1]))


def test_standstill_before_a_pending_fallback_is_not_stuck():
    # Cycle 52 brakes to a standstill and fails the plant check, so cycle 53
    # is a fallback at v = 0; cycle 54 starts from the same standstill with no
    # fallback pending, passes the gate and moves on.
    rep, rows = run_episode(EpisodeConfig(gen_environment("turns"), "turns", "adversarial",
                                          disturbance=Disturbance(0.2, 0.01, 0.2, 0.3),
                                          seed=9))
    assert rows[52].plant_verdict != "pass"
    assert rows[53].v == rows[54].v == 0.0
    assert rows[53].a_acted <= 0.0 < rows[54].a_acted
    assert rows[55].v > 0.0
    assert rep.completed and rep.cycles == 71


def test_choose_accel_bisects_after_a_switch_to_a_lower_upper_limit(monkeypatch):
    # Per-node limits vl ~ U(0.5, 3), vh = vl + U(2, 5) from random.Random(seed) on
    # the turns course: the target moves on to a node whose vh is below the speed,
    # Go fails upper_speed at the largest candidate and holds at full braking, so
    # the admissible boundary lies strictly between them.
    turns = gen_environment("turns")
    rng = random.Random(11)
    nodes = {}
    for nid, n in turns.nodes.items():
        vl = rng.uniform(0.5, 3.0)
        nodes[nid] = dataclasses.replace(n, vl=vl, vh=vl + rng.uniform(2.0, 5.0))
    plan = PlanGraph(nodes=nodes, edges=turns.edges, start=turns.start,
                     terminals=turns.terminals)
    calls = []

    def recording(wp, v, p, target_speed):
        a = choose_accel(wp, v, p, target_speed)
        calls.append((wp, v, p, target_speed, a))
        return a

    monkeypatch.setattr(harness, "choose_accel", recording)
    run_episode(EpisodeConfig(plan, environment="turns", controller="pd2", seed=11,
                              collect_log=False))
    bisected = []
    for wp, v, p, target_speed, a in calls:
        a_hi = max(-p.brake_max, min(p.accel_max, (target_speed - v) / p.cycle_max))
        if -p.brake_max < a < a_hi and go(wp, v, a, p).passed:
            assert go(wp, v, a_hi, p).failed_clause is Clause.UPPER_SPEED
            assert v > wp.vh
            bisected.append(a)
    assert bisected
