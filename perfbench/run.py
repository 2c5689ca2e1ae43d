"""waynet benchmark: four closed-loop workloads driven through the public
entry points (``waynet.cli.main`` and the functions in ``waynet.monitor``).

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, untraced. With
``--trace 1`` it measures half its time untraced and half with the layer
wrappers installed, and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the settings, the environment and the deterministic fingerprints.
perfbench/README.md describes every workload and metric.

The host's CPU speed drifts by up to half over seconds and minutes, so
every end-to-end time is scaled to a fixed machine speed: a calibration
kernel of plain Python runs between the items of each batch, and the batch's
times are multiplied by ``REFERENCE_S`` over the kernel's mean time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DISTURBANCE = "0.1,0.002,0.1,0.1"
CONTROLLERS = "pd1,liveness,bangbang"

# Work in one batch. A run repeats its workload's batch until its time is
# up, and every repetition must reproduce the first one's fingerprint. A
# batch holds enough distinct episodes or calls that its typical item time
# moves little from one seed to the next, and lasts 0.5 to 2 seconds.
SIZES = {
    "full": {"episodes": 15, "interval_episodes": 2, "max_cycles": 2000,
             "gate_replays": 5, "verify_n": 60, "verify_seeds": 6, "setup_reps": 15},
    # For the smoke test: every code path, a fraction of a second each.
    "tiny": {"episodes": 1, "interval_episodes": 1, "max_cycles": 40,
             "gate_replays": 1, "verify_n": 4, "verify_seeds": 2, "setup_reps": 3},
}

# ---------------------------------------------------------------------------
# Calibration. The kernel mixes the interpreter work waynet does (calls,
# float math, tuples, dict stores, Fraction arithmetic) and touches nothing
# of waynet, so a change to the program cannot change its time.

# The kernel's time, in seconds, at the speed all end-to-end times are
# scaled to: about its median on a 2-vCPU Intel Xeon VM under Python 3.11.
REFERENCE_S = 0.0011


def _kernel(n: int = 600):
    acc = 0.0
    store = {}
    q = Fraction(1, 3)
    for i in range(n):
        x = math.sin(i * 0.001) * 1.5 + (i % 7) * 0.25
        t = (x, x * x, -x)
        store[i & 63] = max(t) - min(t)
        acc += store[i & 63]
        if i % 16 == 0:
            q = (q * Fraction(i + 1, i + 2) + Fraction(1, 7)) / 2
    return acc, q


class Calibration:
    """Kernel runs of one batch: one before it, one after it, and one
    between its items whenever ``INTERVAL_S`` have passed since the
    last (``between_items``), so that the runs follow the machine's speed
    through the batch. The collector is off while the kernel runs, so that
    the program's heap does not add to its time."""

    INTERVAL_S = 0.01

    def __init__(self):
        self.on_run = None  # called with each run's seconds, if set
        self.reset()

    def reset(self):
        self.runs: list[tuple[float, float]] = []   # (start, end) of each run
        self.seconds = 0.0
        self.last = -math.inf

    def sample(self) -> float:
        clock = time.perf_counter
        gc.disable()
        try:
            start = clock()
            _kernel()
            end = clock()
        finally:
            gc.enable()
        self.runs.append((start, end))
        self.seconds += end - start
        self.last = end
        if self.on_run is not None:
            self.on_run(end - start)
        return end - start

    def between_items(self):
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """REFERENCE_S over the mean kernel time, weighted by time: the gap
        between two runs counts with its length at the mean of the two."""
        weighted = gaps = 0.0
        for (start0, end0), (start1, end1) in zip(self.runs, self.runs[1:]):
            gap = start1 - end0
            weighted += gap * (end0 - start0 + end1 - start1) / 2.0
            gaps += gap
        if gaps <= 0.0:
            return REFERENCE_S * len(self.runs) / self.seconds
        return REFERENCE_S * gaps / weighted


CALIBRATION = Calibration()


# ---------------------------------------------------------------------------
# Set-up and the calls into the program


def _waynet_modules() -> list[str]:
    return [m for m in sys.modules if m == "waynet" or m.startswith("waynet.")]


def load_waynet():
    """Import waynet from this checkout; returns ``waynet.cli``."""
    cli = importlib.import_module("waynet.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"waynet was imported from {cli.__file__}, not from {SRC}")
    return cli


def time_setup() -> float:
    """Seconds to import waynet afresh and build every built-in course's plan
    (``gen_environment``, then a ``serialize``/``parse_plan`` round trip). The
    modules the run uses are put back afterwards."""
    saved = {name: sys.modules.pop(name) for name in _waynet_modules()}
    try:
        start = time.perf_counter()
        importlib.import_module("waynet.cli")
        plan = sys.modules["waynet.plan"]
        scales = sys.modules["waynet.harness"].DEFAULT_SCALES
        for course in plan.ENVIRONMENTS:
            plan.parse_plan(plan.serialize(plan.gen_environment(course, scales[course])))
        elapsed = time.perf_counter() - start
    finally:
        for name in _waynet_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()  # the discarded modules are cyclic garbage; keep it out of timed work
    return elapsed


def call_main(cli, argv: list[str]) -> tuple[int, str]:
    """Run the CLI with its standard output captured: (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def episode_tap(cli):
    """Collect the report and wall time of every episode ``cli.main`` runs.

    The reports carry the cycle counts and safety accounting that the
    ``simulate`` text table does not; the cost is one extra call per episode.
    """
    run_episode = cli.run_episode
    reports: list = []
    seconds: list[float] = []

    def tapped(cfg):
        CALIBRATION.between_items()
        start = time.perf_counter()
        out = run_episode(cfg)
        seconds.append(time.perf_counter() - start)
        reports.append(out[0])
        return out

    cli.run_episode = tapped
    try:
        yield reports, seconds
    finally:
        cli.run_episode = run_episode


def simulate_failures(code: int, reports) -> int:
    """Failed episodes of one ``simulate`` call: all of them (at least one)
    when it exited non-zero, else those that saw a safety violation."""
    if code != 0:
        return max(1, len(reports))
    return sum(1 for r in reports if r.safety_violations)


_CHECK_LINE = re.compile(r"^(\w+): (\d+) samples, (?:ok|(\d+) violation)", re.M)


def verify_failures(code: int, text: str) -> tuple[int, int]:
    """(samples checked, samples failed) of one ``verify`` call. Every sample
    fails when the call exited non-zero without naming its violations."""
    checked = failed = 0
    for match in _CHECK_LINE.finditer(text):
        checked += int(match[2])
        failed += int(match[3] or 0)
    if code != 0 or checked == 0:
        failed = max(failed, checked, 1)
    return max(checked, 1), failed


def episode_fingerprint(reports) -> dict:
    return {
        "episodes": len(reports),
        "cycles": sum(r.cycles for r in reports),
        "completed": sum(r.completed for r in reports),
        "fallback_engagements": sum(r.fallback_engagements for r in reports),
        "ctrl_rejections": sum(round(r.ctrl_fail_rate * r.cycles) for r in reports),
        "plant_rejections": sum(round(r.plant_fail_rate * r.cycles) for r in reports),
        "safety_violations": sum(r.safety_violations for r in reports),
        "below_vl_at_goal": sum(r.below_vl_at_goal for r in reports),
    }


# ---------------------------------------------------------------------------
# Workloads. ``batch()`` runs the fixed input set once and returns a Batch;
# ``counts`` holds the per-batch denominators of the per-layer metrics.


@dataclass
class Batch:
    work: int             # cycles, monitor evaluations or samples
    seconds: float
    items: list[float]    # seconds per item: episode, replayed episode or call
    cells: list[str]      # each item's cell: course/controller or verify check
    attempted: int
    failed: int
    fingerprint: dict
    scale: float = 1.0    # REFERENCE_S over the batch's mean kernel time

    def throughput(self) -> float:
        """Work units per second at the reference speed."""
        return self.work / (self.seconds * self.scale)


def simulate_argv(seed: int, episodes: int, max_cycles: int, interval: bool) -> list[str]:
    return (["simulate", "--env", "all", "--controller", CONTROLLERS,
             "--episodes", str(episodes), "--max-cycles", str(max_cycles),
             "--disturbance", DISTURBANCE, "--seed", str(seed)]
            + (["--interval-mode"] if interval else []))


class Simulate:
    """``waynet simulate`` over the criterion-1 grid shape; items are episodes."""

    def __init__(self, cli, seed, size, interval):
        self.cli = cli
        episodes = size["interval_episodes" if interval else "episodes"]
        self.argv = simulate_argv(seed, episodes, size["max_cycles"], interval)
        self.warmup = (["simulate", "--env", "rect", "--controller", "pd1",
                        "--episodes", "1", "--max-cycles", "40"]
                       + (["--interval-mode"] if interval else []))
        self.counts = {}

    def prepare(self):
        call_main(self.cli, self.warmup)

    def batch(self) -> Batch:
        with episode_tap(self.cli) as (reports, seconds):
            start = time.perf_counter()
            code, _ = call_main(self.cli, self.argv)
            wall = time.perf_counter() - start
        fingerprint = episode_fingerprint(reports)
        fingerprint["exit_code"] = code
        self.counts = {"cycles": fingerprint["cycles"], "episodes": len(reports),
                       "fallbacks": fingerprint["fallback_engagements"]}
        cells = [f"{r.environment}/{r.controller}" for r in reports]
        return Batch(fingerprint["cycles"], wall, seconds, cells, max(1, len(reports)),
                     simulate_failures(code, reports), fingerprint)


class Gate:
    """Replay of every controller- and plant-monitor call of a seed-S grid
    through the public monitors; items are the calls of one recorded episode."""

    def __init__(self, cli, seed, size):
        self.cli = cli
        self.harness = sys.modules["waynet.harness"]
        self.monitor = sys.modules["waynet.monitor"]
        self.argv = simulate_argv(seed, size["episodes"], size["max_cycles"], False)
        self.replays = size["gate_replays"]
        self.episodes: list[tuple[list, list]] = []
        self.cells: list[str] = []
        self.counts = {}
        self.fingerprint = {}

    def prepare(self):
        """Run the grid once, untimed, recording each monitor call's
        arguments and verdict clause, one list pair per episode."""
        episodes = self.episodes
        ctrl_fn, plant_fn = self.harness.controller_monitor, self.harness.plant_monitor
        run_episode = self.cli.run_episode

        def recorder(fn, slot):
            def recorded(*args):
                verdict = fn(*args)
                episodes[-1][slot].append((*args, verdict.failed_clause))
                return verdict
            return recorded

        def new_episode(cfg):
            episodes.append(([], []))
            self.cells.append(f"{cfg.environment}/{cfg.controller}")
            return run_episode(cfg)

        self.harness.controller_monitor = recorder(ctrl_fn, 0)
        self.harness.plant_monitor = recorder(plant_fn, 1)
        self.cli.run_episode = new_episode
        try:
            code, _ = call_main(self.cli, self.argv)
        finally:
            self.harness.controller_monitor, self.harness.plant_monitor = ctrl_fn, plant_fn
            self.cli.run_episode = run_episode
        clauses: dict[str, int] = {}
        for ctrl, plant in episodes:
            for prefix, calls in (("ctrl", ctrl), ("plant", plant)):
                for call in calls:
                    key = f"{prefix}.{call[-1].value}"
                    clauses[key] = clauses.get(key, 0) + 1
        ctrl_evals = sum(len(c) for c, _ in episodes)
        cycles = sum(len(p) for _, p in episodes)
        self.counts = {"cycles": cycles * self.replays,
                       "episodes": len(episodes) * self.replays, "fallbacks": 0}
        self.fingerprint = {"grid_exit_code": code, "episodes": len(episodes),
                            "cycles": cycles, "ctrl_evals": ctrl_evals,
                            "plant_evals": cycles, "verdicts": dict(sorted(clauses.items()))}
        self.evals = ctrl_evals + cycles
        self.batch()  # warm-up

    def batch(self) -> Batch:
        controller_monitor = self.monitor.controller_monitor
        plant_monitor = self.monitor.plant_monitor
        items = []
        mismatches = 0
        clock = time.perf_counter
        start = clock()
        for _ in range(self.replays):
            for ctrl, plant in self.episodes:
                CALIBRATION.between_items()
                t0 = clock()
                for wp, v, a, p, clause in ctrl:
                    if controller_monitor(wp, v, a, p).failed_clause is not clause:
                        mismatches += 1
                for wp, v, dt, p, clause in plant:
                    if plant_monitor(wp, v, dt, p).failed_clause is not clause:
                        mismatches += 1
                items.append(clock() - t0)
        wall = clock() - start
        evals = self.evals * self.replays
        return Batch(evals, wall, items, self.cells * self.replays, evals, mismatches,
                     self.fingerprint)


class Verify:
    """The five checks of ``waynet verify all`` at several seeds derived from
    the workload seed, one ``verify`` call per check; items are the calls.
    Separate calls give items of five steady sizes instead of whole
    ``verify all`` calls, whose times spread with the seed."""

    CHECKS = (["invariant"], ["progress", "--case", "speedup"],
              ["progress", "--case", "cruise"], ["progress", "--case", "slowdown"],
              ["oracle"])

    def __init__(self, cli, seed, size):
        self.cli = cli
        n, seeds = size["verify_n"], size["verify_seeds"]
        self.argvs = [["verify", *check, "--n", str(n), "--seed", str(seed * seeds + j)]
                      for j in range(seeds) for check in self.CHECKS]
        self.cells = [" ".join(check) for _ in range(seeds) for check in self.CHECKS]
        self.counts = {"cycles": 0, "episodes": 0, "fallbacks": 0}

    def prepare(self):
        call_main(self.cli, ["verify", "all", "--n", "2"])

    def batch(self) -> Batch:
        items = []
        checked = failed = 0
        digest = hashlib.sha256()
        start = time.perf_counter()
        for argv in self.argvs:
            CALIBRATION.between_items()
            t0 = time.perf_counter()
            code, text = call_main(self.cli, argv)
            items.append(time.perf_counter() - t0)
            c, f = verify_failures(code, text)
            checked += c
            failed += f
            digest.update(f"{code}\n{text}".encode())
        wall = time.perf_counter() - start
        fingerprint = {"calls": len(self.argvs), "samples": checked,
                       "failed_samples": failed, "output_sha256": digest.hexdigest()[:16]}
        return Batch(checked, wall, items, self.cells, checked, failed, fingerprint)


WORKLOADS = {
    "grid": lambda cli, seed, size: Simulate(cli, seed, size, interval=False),
    "grid_interval": lambda cli, seed, size: Simulate(cli, seed, size, interval=True),
    "gate": Gate,
    "verify": Verify,
}


def scaled_setup() -> float:
    """One set-up's time at the reference speed, scaled by three kernel
    runs before it and three after it."""
    calibration = Calibration()
    for _ in range(3):
        calibration.sample()
    elapsed = time_setup()
    for _ in range(3):
        calibration.sample()
    return elapsed * calibration.scale()


def measure(workload, seconds: float, setup_reps: int = 0):
    """Repeat the workload's batch until ``seconds`` have passed (at least
    once). Each batch's kernel time is taken out of its wall time and sets
    its scale. Between batches, also time ``setup_reps`` set-ups spread
    evenly over the run. Returns the batches and the scaled set-up times."""
    batches: list[Batch] = []
    setups: list[float] = []
    start = time.perf_counter()
    end = start + seconds
    while not batches or time.perf_counter() < end:
        CALIBRATION.reset()
        outside = CALIBRATION.sample()
        batch = workload.batch()
        batch.seconds -= CALIBRATION.seconds - outside
        CALIBRATION.sample()
        batch.scale = CALIBRATION.scale()
        batches.append(batch)
        due = min(setup_reps, int((time.perf_counter() - start) / seconds * setup_reps))
        while len(setups) < due:
            setups.append(scaled_setup())
    while len(setups) < setup_reps:
        setups.append(scaled_setup())
    return batches, setups


def throughput(batches) -> float:
    return statistics.median(b.throughput() for b in batches)


def typical_item(batches) -> float:
    """Typical scaled item time. Every batch repeats the same items in the
    same order, so each item's time is first its median over the batches.
    Then each cell's time is the mean over its items, and the result the
    geometric mean over the cells. A median over all items would sit in a
    gap between cells and jump as the seed shifts their counts."""
    per_item = (statistics.median(times) for times in
                zip(*([s * b.scale for s in b.items] for b in batches)))
    by_cell: dict[str, list[float]] = {}
    for cell, seconds in zip(batches[0].cells, per_item):
        by_cell.setdefault(cell, []).append(seconds)
    return math.exp(statistics.fmean(math.log(statistics.fmean(v))
                                     for v in by_cell.values()))


# ---------------------------------------------------------------------------
# Tracing: wrappers around the module-level names each layer is called
# through. Spans are aggregated in memory per name and written at the end;
# a span's self time is its duration minus that of its traced children.

SPANS = {
    "cli.main": [("waynet.cli", "main")],
    "harness.run_episode": [("waynet.cli", "run_episode")],
    "plan.next_target": [("waynet.harness", "next_target")],
    "plan.episode_setup": [("waynet.harness", "gen_environment"),
                           ("waynet.harness", "initial_state"),
                           ("waynet.harness", "target_for_edge")],
    "plan.to_relative": [("waynet.plan", "to_relative")],
    "plan.arc_geometry": [("waynet.plan", "arc_geometry")],
    "plan.successors": [("waynet.plan", "PlanGraph.successors")],
    "controllers": [("waynet.harness", "choose_accel"), ("waynet.harness", "liveness_accel"),
                    ("waynet.harness", "declared_curvature"), ("waynet.harness", "_steering")],
    "dynamics.cycle": [("waynet.harness", "actuated"), ("waynet.harness", "to_relative")],
    "monitor.controller": [("waynet.harness", "controller_monitor"),
                           ("waynet.monitor", "controller_monitor")],
    "monitor.plant": [("waynet.harness", "plant_monitor"), ("waynet.monitor", "plant_monitor")],
    "monitor.formula": [("waynet.verify", "invariant_j"), ("waynet.verify", "go"),
                        ("waynet.verify", "feas")],
    "intervals.eval": [("waynet.harness", "interval_eval_controller")],
    "dynamics.closed_form": [("waynet.verify", "closed_form_relative")],
    "verify.invariant": [("waynet.verify", "check_invariant_preservation")],
    "verify.progress": [("waynet.verify", "check_progress")],
    "verify.oracle": [("waynet.verify", "go_oracle")],
}

# Spans whose results are tallied by label.
OUTCOMES = {
    "monitor.controller": lambda verdict: verdict.failed_clause.value,
    "monitor.plant": lambda verdict: verdict.failed_clause.value,
    "intervals.eval": lambda verdict: verdict.value,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, children_s]
        self.outcomes: dict[str, dict[str, int]] = {}
        self._open = [0.0]  # time in traced children, one entry per open span
        self._installed: list[tuple] = []

    def install(self) -> list[str]:
        """Wrap every target that exists; return the spans with none."""
        absent = []
        for name, targets in SPANS.items():
            found = False
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if not callable(fn):
                    continue
                found = True
                setattr(owner, leaf, self._wrap(name, fn))
                self._installed.append((owner, leaf, fn))
            if not found:
                absent.append(name)
        return absent

    def exclude(self, seconds: float):
        """Count ``seconds`` spent outside the program, such as a kernel
        run, as a child of the innermost open span, so that they are not
        part of its self time."""
        self._open[-1] += seconds

    def uninstall(self):
        for owner, leaf, fn in reversed(self._installed):
            setattr(owner, leaf, fn)
        self._installed.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        label = OUTCOMES.get(name)
        tally = self.outcomes.setdefault(name, {}) if label else None
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += children
            if tally is not None:
                key = label(result)
                tally[key] = tally.get(key, 0) + 1
            return result

        return traced

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        calls, total, children = self.stats.get(name, (0, 0.0, 0.0))
        return total - children

    def outcome(self, name, label):
        return self.outcomes.get(name, {}).get(label, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _per_cycle_us(span):
    return "us", [span], lambda t, n: _ratio(1e6 * t.total(span), n["cycles"])


def _per_cycle_calls(span):
    return "1/cycle", [span], lambda t, n: _ratio(t.calls(span), n["cycles"])


def _per_call_us(span):
    return "us", [span], lambda t, n: _ratio(1e6 * t.total(span), t.calls(span))


def _per_batch_calls(span):
    return "count", [span], lambda t, n: _ratio(t.calls(span), n["batches"])


def _per_batch_s(span):
    return "s", [span], lambda t, n: _ratio(t.total(span), n["batches"])


def _share(span, label):
    return "ratio", [span], lambda t, n: _ratio(t.outcome(span, label), t.calls(span))


# name -> (unit, spans it needs, value from (tracer, totals)). Totals hold the
# traced batches' cycles, episodes, fallbacks and batch count. A layer that
# does not run on a workload reads 0.
PER_LAYER = {
    "plan.next_target_us_per_cycle": _per_cycle_us("plan.next_target"),
    "plan.to_relative_per_cycle": _per_cycle_calls("plan.to_relative"),
    "plan.arc_geometry_per_cycle": _per_cycle_calls("plan.arc_geometry"),
    "plan.successors_per_cycle": _per_cycle_calls("plan.successors"),
    "plan.episode_setup_us_per_episode": (
        "us", ["plan.episode_setup"],
        lambda t, n: _ratio(1e6 * t.total("plan.episode_setup"), n["episodes"])),
    "harness.self_us_per_cycle": (
        "us", ["harness.run_episode"],
        lambda t, n: _ratio(1e6 * t.self_time("harness.run_episode"), n["cycles"])),
    "harness.fallback_frac": (
        "ratio", ["harness.run_episode"], lambda t, n: _ratio(n["fallbacks"], n["cycles"])),
    "controllers.us_per_cycle": _per_cycle_us("controllers"),
    "dynamics.us_per_cycle": _per_cycle_us("dynamics.cycle"),
    "monitor.controller_us_per_call": _per_call_us("monitor.controller"),
    "monitor.plant_us_per_call": _per_call_us("monitor.plant"),
    "monitor.calls_per_cycle": (
        "1/cycle", ["monitor.controller", "monitor.plant"],
        lambda t, n: _ratio(t.calls("monitor.controller") + t.calls("monitor.plant"),
                            n["cycles"])),
    "monitor.ctrl_pass_frac": _share("monitor.controller", "none"),
    "monitor.plant_pass_frac": _share("monitor.plant", "none"),
    "monitor.formula_us_per_call": _per_call_us("monitor.formula"),
    "monitor.formula_calls_per_batch": _per_batch_calls("monitor.formula"),
    "intervals.us_per_call": _per_call_us("intervals.eval"),
    "intervals.calls_per_cycle": _per_cycle_calls("intervals.eval"),
    "intervals.certified_frac": _share("intervals.eval", "definitely_true"),
    "dynamics.closed_form_us_per_call": _per_call_us("dynamics.closed_form"),
    "dynamics.closed_form_calls_per_batch": _per_batch_calls("dynamics.closed_form"),
    "verify.invariant_s": _per_batch_s("verify.invariant"),
    "verify.progress_s": _per_batch_s("verify.progress"),
    "verify.oracle_s": _per_batch_s("verify.oracle"),
    "cli.self_ms": (
        "ms", ["cli.main"],
        lambda t, n: _ratio(1e3 * t.self_time("cli.main"), t.calls("cli.main"))),
}


# ---------------------------------------------------------------------------
# Reporting


def nearest_rank(sorted_values, q: float):
    """Nearest-rank q-quantile and the number of samples above its rank."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def account(batches) -> tuple[int, int]:
    """(attempted, failed) over all batches. A batch whose fingerprint differs
    from the first one's fails as a whole: the same input gave another output."""
    attempted = failed = 0
    for b in batches:
        attempted += b.attempted
        if b.fingerprint != batches[0].fingerprint:
            failed += b.attempted
        else:
            failed += min(b.failed, b.attempted)
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    size = SIZES["tiny" if args.tiny else "full"]
    cli = load_waynet()
    workload = WORKLOADS[args.workload](cli, args.seed, size)
    workload.prepare()

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": "tiny" if args.tiny else "full", **size,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }
    if args.trace:
        plain, _ = measure(workload, args.seconds / 2.0)
        tracer = Tracer()
        absent = tracer.install()
        # A kernel run between episodes is inside the cli.main span.
        CALIBRATION.on_run = tracer.exclude
        try:
            traced, _ = measure(workload, args.seconds / 2.0)
        finally:
            CALIBRATION.on_run = None
            tracer.uninstall()
        batches = plain + traced
        totals = {**{k: v * len(traced) for k, v in workload.counts.items()},
                  "batches": len(traced)}
        metrics = {name: metric(fn(tracer, totals), unit)
                   for name, (unit, needs, fn) in PER_LAYER.items()
                   if not set(needs) & set(absent)}
        overhead = throughput(plain) / throughput(traced) - 1.0
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        detail.update({
            "absent": absent,
            "batches": {"untraced": len(plain), "traced": len(traced)},
            "spans": {name: {"calls": calls, "total_s": total, "self_s": total - children}
                      for name, (calls, total, children) in tracer.stats.items()},
            "outcomes": tracer.outcomes,
        })
    else:
        batches, setup_times = measure(workload, args.seconds, size["setup_reps"])
        items = sorted(s * b.scale for b in batches for s in b.items)
        p90, beyond = nearest_rank(items, 0.9)
        metrics = {
            "throughput_per_s": metric(throughput(batches), "1/s"),
            "item_ms_typical": metric(1e3 * typical_item(batches), "ms"),
            "item_ms_p90": metric(1e3 * p90, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
        scales = [b.scale for b in batches]
        detail.update({"batches": len(batches), "setup_s_reps": setup_times,
                       "item_samples": len(items),
                       "item_samples_beyond_p90": beyond,
                       "unscaled_throughput_per_s": statistics.median(
                           b.work / b.seconds for b in batches),
                       "scale_p50": statistics.median(scales),
                       "scale_min": min(scales), "scale_max": max(scales)})
    attempted, failed = account(batches)
    detail.update({"failed_frac": failed / attempted,
                   "fingerprint": batches[0].fingerprint,
                   "fingerprints_repeat": all(b.fingerprint == batches[0].fingerprint
                                              for b in batches)})
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest batches, for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    if not (SRC / "waynet" / "__init__.py").is_file():
        print(f"error: no waynet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
