"""Command-line interface: simulation grids, plan tooling, offline
re-monitoring of logs, and numeric checks.

Exit codes: 0 success, 1 safety violation observed (or failed check), 2
invalid plan or configuration.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path

from waynet.core import Params, RelWaypoint
from waynet.dynamics import Disturbance, WorldPose, to_relative
from waynet.harness import (CONTROLLERS, DEFAULT_PARAMS, EpisodeConfig, LOG_HEADER,
                            format_log, format_value, run_episode, summarize)
from waynet.monitor import controller_monitor
from waynet.plan import ENVIRONMENTS, PlanError, gen_environment, parse_plan, serialize
from waynet import verify as verify_mod


def _episode_seed(base: int, env: str, controller: str, index: int) -> int:
    """Stable per-episode seed derived from the grid coordinates."""
    digest = hashlib.sha256(f"{base}/{env}/{controller}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _parse_disturbance(text: str) -> Disturbance:
    """argparse type of --disturbance; an ArgumentTypeError keeps its message
    in the usage error, where a plain ValueError's is dropped."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--disturbance expects gain,bias,accel,jitter")
    try:
        g, b, a, j = (float(p) for p in parts)
        return Disturbance(curvature_gain_error=g, curvature_bias=b,
                           accel_gain_error=a, cycle_jitter=j)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(text: str) -> int:
    """argparse type of --episodes, --max-cycles and --n: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _params(args) -> Params:
    return Params(accel_max=args.accel, brake_max=args.brake,
                  cycle_max=args.cycle, tol=args.eps)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=DEFAULT_PARAMS.tol,
                   help="goal region radius / annulus half-width (m)")
    p.add_argument("--cycle", type=float, default=DEFAULT_PARAMS.cycle_max,
                   help="maximum controller cycle duration T (s)")
    p.add_argument("--accel", type=float, default=DEFAULT_PARAMS.accel_max,
                   help="maximum acceleration A (m/s^2)")
    p.add_argument("--brake", type=float, default=DEFAULT_PARAMS.brake_max,
                   help="maximum braking B (m/s^2)")


@functools.cache  # built on the first main() call, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waynet", description="Runtime-monitored waypoint following.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an episode grid and summarize")
    sim.add_argument("--env",
                     help=f"course name from {ENVIRONMENTS}, or 'all', "
                          "or a comma-separated list; default: rect")
    sim.add_argument("--plan", type=Path, help="plan file run instead of a built-in course")
    sim.add_argument("--controller", default="pd1",
                     help=f"controller from {CONTROLLERS}, or 'all', "
                          "or a comma-separated list")
    sim.add_argument("--episodes", type=_count, default=5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--scale", type=float,
                     help="course scale (m); default: each course's own")
    sim.add_argument("--max-cycles", type=_count, default=2000)
    sim.add_argument("--branch", choices=("first", "random"), default="first")
    sim.add_argument("--disturbance", type=_parse_disturbance,
                     default=Disturbance(), metavar="GAIN,BIAS,ACCEL,JITTER")
    sim.add_argument("--interval-mode", action="store_true",
                     help="pass a proposal only where the controller monitor holds in "
                          "real arithmetic: one float pass gives the verdict and "
                          "certifies most passes, and interval arithmetic decides the rest")
    sim.add_argument("--no-monitor", action="store_true",
                     help="diagnostic: disable monitor enforcement")
    sim.add_argument("--out", type=Path, help="directory for summary and logs")
    _add_param_flags(sim)

    chk = sub.add_parser("check-plan", help="parse and validate a plan file")
    chk.add_argument("file", type=Path)

    gen = sub.add_parser("gen-env", help="emit a built-in course as a plan file")
    gen.add_argument("name", choices=ENVIRONMENTS)
    gen.add_argument("--scale", type=float, help="course scale (m); default: the course's own")
    gen.add_argument("--out", type=Path, help="output file (default stdout)")

    ev = sub.add_parser("monitor-eval", help="re-judge each logged proposal with the controller monitor")
    ev.add_argument("log", type=Path)
    _add_param_flags(ev)

    ver = sub.add_parser("verify", help="numeric checks of the formula guarantees")
    ver.add_argument("check", choices=("invariant", "progress", "oracle", "all"))
    ver.add_argument("--n", type=_count, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--case", choices=verify_mod.PROGRESS_CASES,
                     help="restrict 'progress' to one case")

    return parser


def _name_list(text: str, choices: tuple[str, ...], kind: str, flag: str) -> list[str]:
    """'all' or a comma-separated list of distinct ``kind`` names from ``choices``."""
    if text == "all":
        return list(choices)
    names = [t.strip() for t in text.split(",") if t.strip()]
    for name in names:
        if name not in choices:
            raise ValueError(f"unknown {kind} {name!r} (choose from {choices})")
        if names.count(name) > 1:
            raise ValueError(f"{kind} {name!r} repeated in {flag}")
    if not names:
        raise ValueError(f"empty {flag} list")
    return names


def _cmd_simulate(args) -> int:
    params = _params(args)
    controllers = _name_list(args.controller, CONTROLLERS, "controller", "--controller")
    if args.plan is not None:
        for flag, value in (("--env", args.env), ("--scale", args.scale)):
            if value is not None:
                raise ValueError(f"{flag} applies to built-in courses, not to a --plan file")
        plans = {args.plan.stem: parse_plan(args.plan.read_text())}
    else:
        envs = _name_list("rect" if args.env is None else args.env,
                          ENVIRONMENTS, "environment", "--env")
        plans = {env: gen_environment(env, args.scale) for env in envs}

    out_dir = args.out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for env, plan in plans.items():
        for controller in controllers:
            for i in range(args.episodes):
                cfg = EpisodeConfig(
                    environment=env,
                    plan=plan,
                    controller=controller,
                    params=params,
                    disturbance=args.disturbance,
                    max_cycles=args.max_cycles,
                    seed=_episode_seed(args.seed, env, controller, i),
                    interval_mode=args.interval_mode,
                    monitoring=not args.no_monitor,
                    branch=args.branch,
                    collect_log=out_dir is not None,
                )
                report, rows = run_episode(cfg)
                reports.append(report)
                if out_dir is not None:
                    log_path = out_dir / f"ep_{env}_{controller}_{i:04d}.csv"
                    log_path.write_text(format_log(rows))

    table, rows = summarize(reports)
    sys.stdout.write(table)
    if out_dir is not None:
        (out_dir / "summary.txt").write_text(table)
        headers = list(rows[0].keys())
        lines = [",".join(headers)]
        for row in rows:
            lines.append(",".join(format_value(row[h]) for h in headers))
        (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    total_violations = sum(r.safety_violations for r in reports)
    return 1 if total_violations else 0


def _cmd_check_plan(args) -> int:
    graph = parse_plan(args.file.read_text())
    print(f"ok: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"start {graph.start}, {len(graph.terminals)} terminal(s)")
    return 0


def _cmd_gen_env(args) -> int:
    text = serialize(gen_environment(args.name, args.scale))
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_monitor_eval(args) -> int:
    params = _params(args)
    lines = args.log.read_text().splitlines()
    if not lines or lines[0] != LOG_HEADER:
        raise ValueError(f"{args.log}: not a trajectory log (bad header)")
    header = LOG_HEADER.split(",")
    counts: dict[str, int] = {}
    total = 0
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"{args.log}:{lineno}: malformed row")
        try:  # every field but the two verdicts is a number
            numbers = [float(text) for text in fields[:-2]]
        except ValueError:
            raise ValueError(f"{args.log}:{lineno}: non-numeric field") from None
        bad = [name for name, value in zip(header, numbers) if not math.isfinite(value)]
        if bad:
            raise ValueError(f"{args.log}:{lineno}: non-finite {', '.join(bad)}")
        _, _, X, Y, psi, v, a_cmd, _, k_decl, wx, wy, vl, vh = numbers
        rel = to_relative(WorldPose(X, Y, psi), (wx, wy))
        verdict = controller_monitor(RelWaypoint(*rel, k_decl, vl, vh), v, a_cmd, params)
        label = "pass" if verdict.passed else verdict.failed_clause.value
        counts[label] = counts.get(label, 0) + 1
        total += 1
    for label in sorted(counts):
        print(f"{label}: {counts[label]}")
    failed = total - counts.get("pass", 0)
    print(f"total: {total} cycles, {failed} rejected")
    return 0


def _cmd_verify(args) -> int:
    if args.case is not None and args.check not in ("progress", "all"):
        raise ValueError(f"--case applies to 'progress' and 'all', not to {args.check!r}")
    reports = []
    if args.check in ("invariant", "all"):
        reports.append(verify_mod.check_invariant_preservation(n=args.n, seed=args.seed))
    if args.check in ("progress", "all"):
        cases = (args.case,) if args.case else verify_mod.PROGRESS_CASES
        for case in cases:
            reports.append(verify_mod.check_progress(case, n=args.n, seed=args.seed))
    if args.check in ("oracle", "all"):
        reports.append(verify_mod.go_oracle(n=args.n, seed=args.seed))
    for report in reports:
        print(report)
    return 0 if all(r.ok for r in reports) else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "check-plan": _cmd_check_plan,
    "gen-env": _cmd_gen_env,
    "monitor-eval": _cmd_monitor_eval,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PlanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
