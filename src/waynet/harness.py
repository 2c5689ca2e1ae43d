"""Monitored episode loop and metrics over one compiled ``PlanGraph``;
``waynet simulate`` builds each course once and passes it in.

One cycle: sense pose -> extract active target -> controller proposes
(waypoint, curvature, acceleration) -> controller monitor gates the proposal
(fallback braking on rejection, reusing the last monitored target) ->
move along the exact arc for a jittered duration <= T -> plant monitor checks
the sensed state against the in-force target (fallback next cycle on
failure) -> record. The plant monitor's body-frame view of the in-force
target is the next cycle's input to target extraction.

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
from waynet.dynamics import (Disturbance, RelPoint, actuated, arc_step, goal_span,
                             to_relative)
from waynet.intervals import IntervalVerdict, Ivl, interval_eval_controller
from waynet.monitor import (PASS, Clause, MonitorVerdict, controller_monitor,
                            fallback_accel, plant_monitor)
from waynet.controllers import (PdGains, bang_bang, choose_accel, cross_track_error,
                                declared_curvature, liveness_accel, pd)
from waynet.plan import (ActiveTarget, DeadEnd, PlanGraph, deterministic_first,
                         gen_environment, initial_state, next_target, seeded_random,
                         target_for_edge)
from waynet.plan import DEFAULT_SCALES  # re-exported: each built-in course's scale (m)

DEFAULT_PARAMS = Params(accel_max=3.0, brake_max=3.0, cycle_max=0.5, tol=1.0)


@dataclass(frozen=True)
class ControllerProfile:
    """Tuning of one untrusted controller: steering law plus target-speed
    margin inside the limit interval."""

    kind: str              # "bangbang" | "pd" | "liveness" | "adversarial"
    speed_frac: float      # target speed = vl + speed_frac * (vh - vl)
    kp: float = 0.0
    kd: float = 0.0
    k_max: float = 2.0
    deadband_frac: float = 0.2  # bang-bang deadband as a fraction of tol


PROFILES = {
    "bangbang": ControllerProfile("bangbang", speed_frac=0.5, k_max=0.3),
    "pd1": ControllerProfile("pd", speed_frac=0.45, kp=0.6, kd=0.3),
    "pd2": ControllerProfile("pd", speed_frac=0.60, kp=0.9, kd=0.3),
    "pd3": ControllerProfile("pd", speed_frac=0.85, kp=1.4, kd=0.3),
    "liveness": ControllerProfile("liveness", speed_frac=0.5),
    "adversarial": ControllerProfile("adversarial", speed_frac=1.0),
}

CONTROLLERS = tuple(PROFILES)


@dataclass(frozen=True)
class EpisodeConfig:
    environment: str | None = "rect"     # course label; builds the course when plan is None
    plan: PlanGraph | None = None
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
        if self.environment is None and self.plan is None:
            raise ValueError("either environment or plan must be given")
        if self.branch not in ("first", "random"):
            raise ValueError(f"branch must be 'first' or 'random', got {self.branch!r}")

    def resolve_plan(self) -> PlanGraph:
        return self.plan or gen_environment(self.environment)


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


@dataclass(frozen=True)
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


def _lookahead(v: float, target: ActiveTarget | None, p: Params) -> float:
    """Path distance to the active target: a handful of goal radii, at least
    1.5 cycles of travel, and enough room for the invariant's speed-gap
    distance terms (brake down to the upper limit, or accelerate back up to
    the lower one) with a factor-2 margin."""
    L = max(6.0 * p.tol, 1.5 * v * p.cycle_max + p.tol)
    if target is not None:
        wp = target.waypoint
        if v > wp.vh:
            L = max(L, (v * v - wp.vh * wp.vh) / p.brake_max + 2.0 * p.tol)
        if v < wp.vl:
            L = max(L, (wp.vl * wp.vl - v * v) / p.accel_max + 2.0 * p.tol)
    return L


def _gate(wp: RelWaypoint, v: float, a: float, p: Params,
          interval_mode: bool) -> MonitorVerdict:
    verdict = controller_monitor(wp, v, a, p)
    if interval_mode and verdict.passed:
        iv = interval_eval_controller(Ivl(wp.x), Ivl(wp.y), Ivl(wp.k),
                                      Ivl(wp.vl), Ivl(wp.vh), Ivl(v), Ivl(a), p)
        if iv is not IntervalVerdict.DEFINITELY_TRUE:
            return MonitorVerdict(False, Clause.INTERVAL_UNDECIDED)
    return verdict


def _steering(profile: ControllerProfile, rel: RelPoint, k_seg: float,
              k_decl: float, v: float, p: Params, prev_e: float):
    """Steering command and updated residual memory for one cycle."""
    eps = p.tol
    if profile.kind == "bangbang":
        return bang_bang(rel, k_seg, eps, profile.deadband_frac * eps,
                         profile.k_max), 0.0
    if profile.kind == "pd":
        # Gain scheduling: the band residual's per-cycle sensitivity to a
        # curvature change grows like v*x*T, so normalize the gains by it to
        # keep the discrete loop stable across course scales and speeds.
        scale = 1.0 + v * max(rel.x, 0.0) * p.cycle_max
        gains = PdGains(kp=profile.kp / scale, kd=profile.kd / scale,
                        curvature_max=profile.k_max)
        cmd = pd(rel, prev_e, p.cycle_max, k_seg, eps, gains)
        return cmd, cross_track_error(rel, k_seg, eps)
    # liveness and adversarial steer the declared (residual-zeroing) curvature.
    return k_decl, 0.0


def run_episode(cfg: EpisodeConfig):
    """Run one monitored episode. Returns (EpisodeReport, list[LogRow])."""
    p = cfg.params
    graph = cfg.resolve_plan()
    profile = PROFILES[cfg.controller]
    rng = random.Random(cfg.seed)
    policy = seeded_random(rng.randrange(2**32)) if cfg.branch == "random" \
        else deterministic_first

    pose, edge0 = initial_state(graph, policy)
    v = graph.segments[edge0].b.vl  # start inside the first limits
    target = target_for_edge(graph, edge0, pose, p,
                             lookahead=_lookahead(v, None, p))

    cycles = 0
    ctrl_failures = 0
    plant_failures = 0
    safety_violations = 0
    fallback_engagements = 0
    below_vl_at_goal = 0
    pending_fallback = False
    completed = False
    stalled_cycles = 0
    prev_e = 0.0
    distance = 0.0
    elapsed_total = 0.0
    reached_hint = False
    rows: list[LogRow] = []

    T = p.cycle_max
    eps = p.tol

    while cycles < cfg.max_cycles:
        if cycles > 0:
            try:
                target = next_target(graph, target, pose, rel2, p, policy,
                                     reached_hint=reached_hint,
                                     lookahead=_lookahead(v, target, p),
                                     overshoot=v * p.cycle_max)
            except DeadEnd as end:
                completed = end.completed
                break
        reached_hint = False
        wp_seg = target.waypoint
        rel = RelPoint(wp_seg.x, wp_seg.y)
        k_decl = declared_curvature(rel, wp_seg.k, eps)
        wp_decl = RelWaypoint(wp_seg.x, wp_seg.y, k_decl, wp_seg.vl, wp_seg.vh)

        # Untrusted proposal.
        if profile.kind == "liveness":
            a_prop = liveness_accel(v, wp_seg.vl, wp_seg.vh, p.accel_max, p.brake_max)
        elif profile.kind == "adversarial":
            a_prop = p.accel_max
        else:
            target_speed = wp_seg.vl + profile.speed_frac * (wp_seg.vh - wp_seg.vl)
            a_prop = choose_accel(wp_decl, v, p, target_speed)
        k_steer, prev_e = _steering(profile, rel, wp_seg.k, k_decl, v, p, prev_e)

        # Gate the proposal; fall back on rejection or on a pending plant failure.
        if pending_fallback:
            ctrl_verdict = PASS
            fallback = True
            pending_fallback = False
        else:
            ctrl_verdict = _gate(wp_decl, v, a_prop, p, cfg.interval_mode)
            fallback = not ctrl_verdict.passed
            if fallback:
                ctrl_failures += 1

        inforce_world, inforce_k = target.target_world, k_decl
        inforce_vl, inforce_vh = wp_seg.vl, wp_seg.vh
        if fallback and cfg.monitoring:
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
        dt = T * (1.0 - cfg.disturbance.cycle_jitter * rng.random())
        k_act, a_act = actuated(k_cmd, a_cmd, cfg.disturbance)
        new_pose, vv, s = arc_step(pose, v, k_act, a_act, dt)
        distance += s
        cycle_violation = cycle_below_vl = False
        span = goal_span(wp_seg.x, wp_seg.y, k_act, s, eps)
        if span is not None:
            reached_hint = True
            speeds = [math.sqrt(max(0.0, v * v + 2.0 * a_act * sigma)) for sigma in span]
            cycle_violation = max(speeds) > inforce_vh
            cycle_below_vl = min(speeds) < inforce_vl
        elapsed_total += dt

        # Plant monitor against the in-force target; next_target reuses rel2.
        rel2 = to_relative(new_pose, inforce_world)
        wp2 = RelWaypoint(rel2.x, rel2.y, inforce_k, inforce_vl, inforce_vh)
        plant_verdict = plant_monitor(wp2, vv, dt, p)
        if not plant_verdict.passed:
            plant_failures += 1
            if cfg.monitoring:
                pending_fallback = True

        if cycle_violation:
            safety_violations += 1
        if cycle_below_vl:
            below_vl_at_goal += 1

        if cfg.collect_log:
            rows.append(LogRow(
                cycle=cycles, t=elapsed_total - dt, x=pose.x, y=pose.y,
                psi=pose.heading, v=v, a_cmd=a_prop, a_acted=a_cmd,
                k_decl=inforce_k, wx=inforce_world[0], wy=inforce_world[1],
                vl=inforce_vl, vh=inforce_vh,
                ctrl_verdict="pass" if ctrl_verdict.passed else ctrl_verdict.failed_clause.value,
                plant_verdict="pass" if plant_verdict.passed else plant_verdict.failed_clause.value))

        pose, v = new_pose, vv
        cycles += 1

        # A standstill under sustained monitor rejection cannot resolve itself:
        # the contract for the current waypoint is unreachable. Call it stuck.
        if v == 0.0 and fallback and cfg.monitoring:
            stalled_cycles += 1
            if stalled_cycles >= 50:
                break
        else:
            stalled_cycles = 0

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
        environment=cfg.environment or "plan",
        controller=cfg.controller,
        seed=cfg.seed,
    )
    return report, rows


def summarize(reports, grouping=("environment", "controller")):
    """Aggregate reports into per-group means.

    Returns (text table, machine-readable rows as a list of dicts).
    """
    if not reports:
        raise ValueError("summarize requires at least one report")
    groups: dict[tuple, list[EpisodeReport]] = {}
    for r in reports:
        key = tuple(getattr(r, g) for g in grouping)
        groups.setdefault(key, []).append(r)

    rows = []
    for key in sorted(groups):
        rs = groups[key]
        n = len(rs)
        row = dict(zip(grouping, key))
        row.update({
            "episodes": n,
            "completed_frac": sum(r.completed for r in rs) / n,
            "avg_speed": sum(r.avg_speed for r in rs) / n,
            "ctrl_fail_rate": sum(r.ctrl_fail_rate for r in rs) / n,
            "plant_fail_rate": sum(r.plant_fail_rate for r in rs) / n,
            "safety_violations": sum(r.safety_violations for r in rs),
            "fallback_engagements": sum(r.fallback_engagements for r in rs),
            "below_vl_at_goal": sum(r.below_vl_at_goal for r in rs),
        })
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
