"""Command-line interface: simulation grids, plan tooling, offline
re-monitoring of logs, monitor throughput benchmarks, and numeric checks.

Exit codes: 0 success, 1 safety violation observed (or failed check), 2
invalid plan or configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from waynet.core import Params, RelWaypoint
from waynet.dynamics import Disturbance, WorldPose, to_relative
from waynet.harness import (CONTROLLERS, DEFAULT_PARAMS, EpisodeConfig, LOG_HEADER,
                            format_log, format_value, run_episode, summarize)
from waynet.intervals import Ivl, interval_eval_controller
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waynet", description="Runtime-monitored waypoint following.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an episode grid and summarize")
    sim.add_argument("--env", default="rect",
                     help=f"course name from {ENVIRONMENTS}, or 'all', "
                          "or a comma-separated list")
    sim.add_argument("--plan", type=Path, help="plan file overriding --env")
    sim.add_argument("--controller", default="pd1",
                     help=f"controller from {CONTROLLERS}, or 'all', "
                          "or a comma-separated list")
    sim.add_argument("--episodes", type=int, default=5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--scale", type=float,
                     help="course scale (m); default: each course's own")
    sim.add_argument("--max-cycles", type=int, default=2000)
    sim.add_argument("--branch", choices=("first", "random"), default="first")
    sim.add_argument("--disturbance", type=_parse_disturbance,
                     default=Disturbance(), metavar="GAIN,BIAS,ACCEL,JITTER")
    sim.add_argument("--interval-mode", action="store_true",
                     help="additionally require an interval-certified pass")
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

    ev = sub.add_parser("monitor-eval", help="re-run the monitors over a log")
    ev.add_argument("log", type=Path)
    _add_param_flags(ev)

    bench = sub.add_parser("bench", help="monitor evaluation throughput")
    bench.add_argument("--n", type=int, default=100_000)
    _add_param_flags(bench)

    ver = sub.add_parser("verify", help="numeric checks of the formula guarantees")
    ver.add_argument("check", choices=("invariant", "progress", "oracle", "all"))
    ver.add_argument("--n", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--case", choices=verify_mod.PROGRESS_CASES,
                     help="restrict 'progress' to one case")

    return parser


def _controller_list(text: str) -> list[str]:
    if text == "all":
        return list(CONTROLLERS)
    names = [t.strip() for t in text.split(",") if t.strip()]
    for name in names:
        if name not in CONTROLLERS:
            raise ValueError(f"unknown controller {name!r} (choose from {CONTROLLERS})")
    if not names:
        raise ValueError("empty --controller list")
    return names


def _env_list(text: str) -> list[str]:
    if text == "all":
        return list(ENVIRONMENTS)
    names = [t.strip() for t in text.split(",") if t.strip()]
    for name in names:
        if name not in ENVIRONMENTS:
            raise ValueError(f"unknown environment {name!r} (choose from {ENVIRONMENTS})")
    if not names:
        raise ValueError("empty --env list")
    return names


def _cmd_simulate(args) -> int:
    params = _params(args)
    controllers = _controller_list(args.controller)
    if args.plan is not None:
        plans = {args.plan.stem: parse_plan(args.plan.read_text())}
    else:
        plans = {env: gen_environment(env, args.scale) for env in _env_list(args.env)}

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
    counts: dict[str, int] = {}
    total = 0
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(LOG_HEADER.split(",")):
            raise ValueError(f"{args.log}:{lineno}: malformed row")
        (_, _, X, Y, psi, v, _, a_acted, k_decl, wx, wy, vl, vh, _, _) = fields
        pose = WorldPose(float(X), float(Y), float(psi))
        rel = to_relative(pose, (float(wx), float(wy)))
        wp = RelWaypoint(rel.x, rel.y, float(k_decl), float(vl), float(vh))
        verdict = controller_monitor(wp, float(v), float(a_acted), params)
        label = "pass" if verdict.passed else verdict.failed_clause.value
        counts[label] = counts.get(label, 0) + 1
        total += 1
    for label in sorted(counts):
        print(f"{label}: {counts[label]}")
    failed = total - counts.get("pass", 0)
    print(f"total: {total} cycles, {failed} rejected")
    return 0


def _cmd_bench(args) -> int:
    params = _params(args)
    wp = RelWaypoint(x=12.0, y=0.4, k=0.005, vl=2.0, vh=6.0)
    v, a = 4.0, 0.8
    start = time.perf_counter()
    for _ in range(args.n):
        controller_monitor(wp, v, a, params)
    point_dt = time.perf_counter() - start

    n_iv = max(1, args.n // 100)
    box = [Ivl(wp.x), Ivl(wp.y), Ivl(wp.k), Ivl(wp.vl), Ivl(wp.vh), Ivl(v), Ivl(a)]
    start = time.perf_counter()
    for _ in range(n_iv):
        interval_eval_controller(*box, params)
    iv_dt = time.perf_counter() - start

    print(f"point monitor:    {args.n} evals in {point_dt:.3f} s "
          f"({args.n / point_dt:,.0f}/s)")
    print(f"interval monitor: {n_iv} evals in {iv_dt:.3f} s "
          f"({n_iv / iv_dt:,.0f}/s)")
    return 0


def _cmd_verify(args) -> int:
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
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PlanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
