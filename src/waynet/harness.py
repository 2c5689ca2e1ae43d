"""Monitored episode loop and metrics over one compiled ``PlanGraph``;
``waynet simulate`` builds each course once and passes it in.

One cycle: sense pose -> extract active target -> controller proposes
(waypoint, curvature, acceleration) -> controller monitor gates the proposal
(fallback braking on rejection, reusing the last monitored target) ->
move along the exact arc for a jittered duration <= T -> plant monitor checks
the sensed state against the in-force target (fallback next cycle on
failure) -> record. The plant monitor's body-frame view of the in-force
target is the next cycle's input to target extraction.

An episode ends at a terminal node (completed), at a dead end, after
``max_cycles``, or as stuck at the first cycle that leaves the loop state (v,
pose, target, pending fallback, the controller's memory, goal-region hint) as
it found it. Such a cycle moved nothing, so its jittered duration changed only
the elapsed time; the branch policy, the one other input, runs only when the
target moves to another edge. Every later cycle would repeat it.

Safety accounting follows the goal-region contract: a cycle is a safety
violation when the vehicle is inside the goal region (Euclidean distance
<= tol) above the upper speed limit at any point of its arc; the arc's first
entry into and last exit from the goal region are computed exactly, not
sampled. Goal entries below the lower limit are tracked separately
(below_vl_at_goal): sustained fallback braking legitimately sheds speed, and
those events are recorded without being classified as violations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from waynet.core import Params, RelWaypoint
from waynet.dynamics import Disturbance, actuated, arc_step, goal_span, to_relative
from waynet.intervals import DEFINITELY_TRUE, Ivl, interval_eval_controller
from waynet.monitor import (FAIL_INTERVAL_UNDECIDED, PASS, MonitorVerdict, ann_residual,
                            certified_controller_monitor, controller_monitor,
                            fallback_accel, plant_monitor)
from waynet.controllers import (bang_bang, choose_accel, declared_curvature,
                                liveness_accel, pd)
from waynet.plan import (DeadEnd, PlanGraph, deterministic_first, initial_state,
                         next_target, seeded_random)
from waynet.plan import DEFAULT_SCALES  # re-exported: each built-in course's scale (m)

DEFAULT_PARAMS = Params(accel_max=3.0, brake_max=3.0, cycle_max=0.5, tol=1.0)


def _pd(speed_frac: float, kp: float, kd: float, k_max: float = 2.0):
    """PD steering on the band residual of the in-force target, and the
    largest admissible acceleration toward vl + speed_frac * (vh - vl)."""
    def law(wp, wp_decl, v, p, prev_e):
        # Gain scheduling: the band residual's per-cycle sensitivity to a
        # curvature change grows like v*x*T, so normalize the gains by it to
        # keep the discrete loop stable across course scales and speeds.
        scale = 1.0 + v * max(wp.x, 0.0) * p.cycle_max
        e = ann_residual(wp.x, wp.y, wp.k, p.tol)
        k = pd(e, prev_e, p.cycle_max, wp.k, kp / scale, kd / scale, k_max)
        return k, choose_accel(wp_decl, v, p, wp.vl + speed_frac * (wp.vh - wp.vl)), e
    return law


def _bangbang(wp, wp_decl, v, p, memory):
    """Bang-bang steering 0.3 1/m off the segment curvature outside a deadband
    of tol/5, and the largest admissible acceleration toward mid-limits."""
    k = bang_bang(wp.x, wp.y, wp.k, p.tol, 0.2 * p.tol, 0.3)
    return k, choose_accel(wp_decl, v, p, wp.vl + 0.5 * (wp.vh - wp.vl)), memory


def _liveness(wp, wp_decl, v, p, memory):
    """The reference speed law on the declared (residual-zeroing) arc."""
    return wp_decl.k, liveness_accel(v, wp.vl, wp.vh, p.accel_max, p.brake_max), memory


def _adversarial(wp, wp_decl, v, p, memory):
    """Full acceleration on the declared arc, whatever the speed limits."""
    return wp_decl.k, p.accel_max, memory


# Each controller is one law: (in-force target, declared target, v, Params,
# memory) -> (steering curvature, proposed acceleration, memory), a pure
# function that keeps state only in the memory it returns (the stuck rule).
PROFILES = {
    "bangbang": _bangbang,
    "pd1": _pd(0.45, kp=0.6, kd=0.3),
    "pd2": _pd(0.60, kp=0.9, kd=0.3),
    "pd3": _pd(0.85, kp=1.4, kd=0.3),
    "liveness": _liveness,
    "adversarial": _adversarial,
}

CONTROLLERS = tuple(PROFILES)


@dataclass(frozen=True)
class EpisodeConfig:
    plan: PlanGraph
    environment: str = "plan"            # course label in reports
    controller: str = "pd1"
    params: Params = DEFAULT_PARAMS
    disturbance: Disturbance = Disturbance()
    max_cycles: int = 2000
    seed: int = 0
    interval_mode: bool = False
    monitoring: bool = True              # diagnostic: False disables enforcement
    branch: str = "first"                # "first" | "random"
    collect_log: bool = True

    def __post_init__(self):
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        if self.controller not in PROFILES:
            raise ValueError(f"unknown controller {self.controller!r} "
                             f"(choose from {sorted(PROFILES)})")
        if self.branch not in ("first", "random"):
            raise ValueError(f"branch must be 'first' or 'random', got {self.branch!r}")


@dataclass(frozen=True)
class EpisodeReport:
    completed: bool
    cycles: int
    avg_speed: float
    ctrl_fail_rate: float
    plant_fail_rate: float
    safety_violations: int
    fallback_engagements: int
    below_vl_at_goal: int
    environment: str = ""
    controller: str = ""
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.ctrl_fail_rate <= 1.0 and 0.0 <= self.plant_fail_rate <= 1.0):
            raise ValueError("failure rates must lie in [0, 1]")


@dataclass(slots=True)
class LogRow:
    """One control cycle: state sensed at cycle start, the decision, and the
    monitor verdicts (the plant verdict refers to the end of this cycle)."""

    cycle: int
    t: float
    x: float
    y: float
    psi: float
    v: float
    a_cmd: float
    a_acted: float
    k_decl: float
    wx: float
    wy: float
    vl: float
    vh: float
    ctrl_verdict: str
    plant_verdict: str


LOG_HEADER = "cycle,t,X,Y,psi,v,a_cmd,a_acted,k_decl,wx,wy,vl,vh,ctrl_verdict,plant_verdict"


def format_log(rows) -> str:
    out = [LOG_HEADER]
    for r in rows:
        out.append(
            f"{r.cycle},{r.t:.9g},{r.x:.9g},{r.y:.9g},{r.psi:.9g},{r.v:.9g},"
            f"{r.a_cmd:.9g},{r.a_acted:.9g},{r.k_decl:.9g},{r.wx:.9g},{r.wy:.9g},"
            f"{r.vl:.9g},{r.vh:.9g},{r.ctrl_verdict},{r.plant_verdict}")
    return "\n".join(out) + "\n"


def _gate(wp: RelWaypoint, v: float, a: float, p: Params) -> MonitorVerdict:
    """The ``--interval-mode`` gate: a pass of the controller monitor must hold
    in real arithmetic. One pass of ``certified_controller_monitor`` returns
    the float verdict and certifies most passes; only a pass it cannot tell,
    near a clause's boundary, is evaluated over point intervals, where
    anything but DefinitelyTrue rejects. Point mode calls
    ``controller_monitor`` alone, which computes no certificate."""
    verdict, certified = certified_controller_monitor(wp, v, a, p)
    if certified or not verdict.passed:
        return verdict
    iv = interval_eval_controller(Ivl(wp.x), Ivl(wp.y), Ivl(wp.k),
                                  Ivl(wp.vl), Ivl(wp.vh), Ivl(v), Ivl(a), p)
    return verdict if iv is DEFINITELY_TRUE else FAIL_INTERVAL_UNDECIDED


def run_episode(cfg: EpisodeConfig):
    """Run one monitored episode. Returns (EpisodeReport, list[LogRow])."""
    p = cfg.params
    graph = cfg.plan
    control, disturbance = PROFILES[cfg.controller], cfg.disturbance
    monitoring, interval_mode = cfg.monitoring, cfg.interval_mode
    collect_log, max_cycles = cfg.collect_log, cfg.max_cycles
    rng = random.Random(cfg.seed)
    jitter, draw = disturbance.cycle_jitter, rng.random
    policy = seeded_random(rng.randrange(2**32)) if cfg.branch == "random" \
        else deterministic_first

    pose, v, target = initial_state(graph, p, policy)

    cycles = 0
    ctrl_failures = 0
    plant_failures = 0
    safety_violations = 0
    fallback_engagements = 0
    below_vl_at_goal = 0
    pending_fallback = False
    completed = False
    prev_e = 0.0
    distance = 0.0
    elapsed_total = 0.0
    reached_hint = False
    prev_state = None
    rows: list[LogRow] = []

    T = p.cycle_max
    eps = p.tol

    while cycles < max_cycles:
        if cycles > 0:
            try:
                target = next_target(graph, target, pose, rel2, v, p, policy, reached_hint)
            except DeadEnd as end:
                completed = end.completed
                break
        reached_hint = False
        wp_seg = target.waypoint
        k_decl = declared_curvature(wp_seg.x, wp_seg.y, wp_seg.k, eps)
        wp_decl = RelWaypoint(wp_seg.x, wp_seg.y, k_decl, wp_seg.vl, wp_seg.vh)

        # Untrusted proposal.
        k_steer, a_prop, prev_e = control(wp_seg, wp_decl, v, p, prev_e)

        # Gate the proposal; fall back on rejection or on a pending plant failure.
        if pending_fallback:
            ctrl_verdict = PASS
            fallback = True
            pending_fallback = False
        else:
            ctrl_verdict = (_gate(wp_decl, v, a_prop, p) if interval_mode
                            else controller_monitor(wp_decl, v, a_prop, p))
            fallback = not ctrl_verdict.passed
            if fallback:
                ctrl_failures += 1

        if fallback and monitoring:
            fallback_engagements += 1
            a_cmd = fallback_accel(v, p)
            k_cmd = k_decl  # ride the residual-zeroing arc while braking
        else:
            a_cmd = a_prop
            k_cmd = k_steer

        # Exact physics for a jittered duration <= T, with the exact first
        # entry into and last exit from the goal region along the arc (wp_seg
        # is the in-force target in the body frame at cycle start). Speed is
        # monotone within a cycle, so its extremes in the goal region sit at
        # those two points.
        dt = T * (1.0 - jitter * draw())
        k_act, a_act = actuated(k_cmd, a_cmd, disturbance)
        new_pose, vv, s = arc_step(pose, v, k_act, a_act, dt)
        distance += s
        span = goal_span(wp_seg.x, wp_seg.y, k_act, s, eps)
        if span is not None:
            reached_hint = True
            v_in = math.sqrt(max(0.0, v * v + 2.0 * a_act * span[0]))
            v_out = math.sqrt(max(0.0, v * v + 2.0 * a_act * span[1]))
            if v_in > wp_seg.vh or v_out > wp_seg.vh:
                safety_violations += 1
            if v_in < wp_seg.vl or v_out < wp_seg.vl:
                below_vl_at_goal += 1
        elapsed_total += dt

        # Plant monitor against the in-force target; next_target reuses rel2.
        x2, y2 = rel2 = to_relative(new_pose, target.target_world)
        if not (math.isfinite(x2) and math.isfinite(y2)):
            raise ValueError(f"cycle {cycles}: vehicle state overflowed; a parameter is too large")
        wp2 = RelWaypoint(x2, y2, k_decl, wp_seg.vl, wp_seg.vh)
        plant_verdict = plant_monitor(wp2, vv, dt, p)
        if not plant_verdict.passed:
            plant_failures += 1
            if monitoring:
                pending_fallback = True

        if collect_log:
            rows.append(LogRow(
                cycle=cycles, t=elapsed_total - dt, x=pose.x, y=pose.y,
                psi=pose.heading, v=v, a_cmd=a_prop, a_acted=a_cmd,
                k_decl=k_decl, wx=target.target_world[0], wy=target.target_world[1],
                vl=wp_seg.vl, vh=wp_seg.vh,
                ctrl_verdict="pass" if ctrl_verdict.passed else ctrl_verdict.failed_clause.value,
                plant_verdict="pass" if plant_verdict.passed else plant_verdict.failed_clause.value))

        pose, v = new_pose, vv
        cycles += 1

        # Stuck: this cycle left the loop state as it found it (module docstring).
        state = (v, pose, target, pending_fallback, prev_e, reached_hint)
        if state == prev_state:
            break
        prev_state = state

    avg_speed = distance / elapsed_total if elapsed_total > 0.0 else 0.0
    report = EpisodeReport(
        completed=completed,
        cycles=cycles,
        avg_speed=avg_speed,
        ctrl_fail_rate=ctrl_failures / cycles if cycles else 0.0,
        plant_fail_rate=plant_failures / cycles if cycles else 0.0,
        safety_violations=safety_violations,
        fallback_engagements=fallback_engagements,
        below_vl_at_goal=below_vl_at_goal,
        environment=cfg.environment,
        controller=cfg.controller,
        seed=cfg.seed,
    )
    return report, rows


def summarize(reports):
    """Aggregate reports into per-(environment, controller) means.

    Returns (text table, machine-readable rows as a list of dicts).
    """
    if not reports:
        raise ValueError("summarize requires at least one report")
    groups: dict[tuple, list[EpisodeReport]] = {}
    for r in reports:
        groups.setdefault((r.environment, r.controller), []).append(r)

    rows = []
    for (environment, controller), rs in sorted(groups.items()):
        n = len(rs)
        row = {
            "environment": environment,
            "controller": controller,
            "episodes": n,
            "completed_frac": sum(r.completed for r in rs) / n,
            "avg_speed": sum(r.avg_speed for r in rs) / n,
            "ctrl_fail_rate": sum(r.ctrl_fail_rate for r in rs) / n,
            "plant_fail_rate": sum(r.plant_fail_rate for r in rs) / n,
            "safety_violations": sum(r.safety_violations for r in rs),
            "fallback_engagements": sum(r.fallback_engagements for r in rs),
            "below_vl_at_goal": sum(r.below_vl_at_goal for r in rs),
        }
        rows.append(row)

    headers = list(rows[0].keys())
    rendered = [[format_value(row[hdr]) for hdr in headers] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rendered)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n", rows


def format_value(value) -> str:
    """Summary cell text: floats to 9 significant digits."""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)
