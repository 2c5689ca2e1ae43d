"""Paired perfbench runs of a parent commit against the working tree.

    python3 scripts/bench_pair.py PARENT_REF --pr N

Exports PARENT_REF with ``git archive`` into a temporary directory. For every
workload of BENCHMARK.json it runs ``perfbench/run.py --trace 0`` on the
parent and on the working tree in 10 alternating pairs, the parent first in
even-numbered pairs, and then 3 alternating pairs of ``--trace 1`` runs for
the per-layer metrics. Every run lasts BENCHMARK.json's ``run_seconds`` at seed 1,
so every BENCH file comes from the same settings. It then runs 3 more
alternating untraced pairs at seed 2, a held-out seed: a claimed gain must
also hold on a seed not used while the change was written. Each side runs its
own ``perfbench/``, so the comparison holds only while that directory is the
same in both: when a file under ``perfbench/`` or BENCHMARK.json differs
between the exported parent and the working tree, it names the files and
exits with status 2 before running anything.

It writes BENCH_<N>.json at the repository root. Per workload and end-to-end
metric, it holds each side's runs, median and quartiles, the pairs the change
won, and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs (ties count for
  neither), and the medians differ by more than the parent's quartile spread;
- ``regression``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's quartile spread exceeds the bound, and not
  every change run is better than every parent run;
- ``unchanged``: none of these.

The held-out pairs get the same comparison per end-to-end metric, so with 3
pairs a ``gain`` there needs all 3 wins.

It also records each per-layer metric's traced runs and their median per
side, whether every run of both sides gave the same fingerprint, and the
failed-operation counts, and each side's ``src/waynet`` line count as ``wc -l
src/waynet/*.py`` gives it. Traced times are not scaled for CPU speed, and even
the median of 3 alternating traced pairs can land in one slow phase of the
CPU: in BENCH_12.json two of the change's three traced ``grid`` runs did, and
``harness.self`` read 15.9 -> 21.4 us per cycle while throughput did not move.
Read traced values for shares and call counts, not for gains.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")
PAIRS = 10
TRACED_PAIRS = 3
SEED = 1
HELD_OUT_PAIRS = 3
HELD_OUT_SEED = 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Verdict on one end-to-end metric from paired runs (pair i is
    parent[i], change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    worse_by = sign * (pm - cm) / pm
    if worse_by > bound:
        verdict = "regression"
    elif wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        verdict = "gain"
    elif (p3 - p1) / pm > bound and not min(sign * c for c in change) > max(
            sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"better": better, "bound": bound, "verdict": verdict,
            "wins": wins, "pairs": len(parent), "change_over_parent": cm / pm,
            "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
            "change": {"median": cm, "q1": c1, "q3": c3, "runs": change}}


def paired_runs(run, pairs: int) -> dict[str, list]:
    """run(side) for both sides of each of `pairs` pairs, the parent first in
    even-numbered pairs."""
    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(side))
    return runs


def per_layer(traced: dict[str, list[dict]], names: list[str]) -> dict:
    """Each per-layer metric's traced runs and their median, per side; a
    metric some traced run does not report is left out."""
    values = {name: {side: [r["metrics"][name]["value"] for r in runs]
                     for side, runs in traced.items()}
              for name in names
              if all(name in r["metrics"] for runs in traced.values() for r in runs)}
    return {name: {side: {"median": statistics.median(v), "runs": v}
                   for side, v in sides.items()}
            for name, sides in values.items()}


def perfbench(tree: Path, workload: str, seconds: float, trace: int, seed: int) -> dict:
    """One perfbench run in tree: its result line with the detail line merged in."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(detail)}


def line_count(tree: Path) -> int:
    """Lines of ``src/waynet/*.py`` in tree, counted as ``wc -l`` counts them:
    newline characters, so a last line without one is not counted."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "waynet").glob("*.py"))


def export(ref: str, into: Path) -> str:
    """Write the tree of ref into `into`; return its commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return sha


def differing_files(parent: Path, change: Path) -> list[str]:
    """The files of BENCHMARK_FILES, as paths relative to each tree, that only
    one tree has or whose bytes differ; ``__pycache__`` is skipped."""
    def files(tree: Path) -> dict[str, bytes]:
        found = {}
        for name in BENCHMARK_FILES:
            top = tree / name
            for path in top.rglob("*") if top.is_dir() else [top]:
                if path.is_file() and "__pycache__" not in path.parts:
                    found[path.relative_to(tree).as_posix()] = path.read_bytes()
        return found

    old, new = files(parent), files(change)
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def end_to_end(runs: dict[str, list], spec: dict) -> dict:
    """compare() of every end-to-end metric over paired runs."""
    return {
        m["name"]: compare([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                           [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                           m["better"], m["bound"])
        for m in spec["end_to_end"]}


def bench_workload(trees: dict[str, Path], workload: str, spec: dict) -> dict:
    seconds = spec["run_seconds"]

    def untraced(seed):
        def run(side):
            result = perfbench(trees[side], workload, seconds, 0, seed)
            print(f"{workload} seed {seed} {side}: "
                  f"{result['metrics']['throughput_per_s']['value']:.1f}/s", file=sys.stderr)
            return result
        return run

    runs = paired_runs(untraced(SEED), PAIRS)
    traced = paired_runs(lambda side: perfbench(trees[side], workload, seconds, 1, SEED),
                         TRACED_PAIRS)
    held_out = paired_runs(untraced(HELD_OUT_SEED), HELD_OUT_PAIRS)
    every_run = [r for side in (runs, traced) for rs in side.values() for r in rs]
    held_out_runs = [r for rs in held_out.values() for r in rs]
    return {
        "end_to_end": end_to_end(runs, spec),
        "per_layer": per_layer(traced, [m["name"] for m in spec["per_layer"]]),
        "fingerprints_equal": all(r["detail"]["fingerprint"] == every_run[0]["detail"]["fingerprint"]
                                  for r in every_run),
        "fingerprint": every_run[0]["detail"]["fingerprint"],
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "held_out": {
            "seed": HELD_OUT_SEED,
            "end_to_end": end_to_end(held_out, spec),
            "fingerprints_equal": all(r["detail"]["fingerprint"]
                                      == held_out_runs[0]["detail"]["fingerprint"]
                                      for r in held_out_runs),
            "failed": {side: sum(r["failed"] for r in held_out[side]) for side in held_out},
            "attempted": {side: sum(r["attempted"] for r in held_out[side])
                          for side in held_out},
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", help="git revision of the parent commit")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<N>.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        parent_sha = export(args.parent_ref, Path(tmp))
        differing = differing_files(Path(tmp), ROOT)
        if differing:
            print(f"error: the benchmark differs between {args.parent_ref} and the working "
                  f"tree, so the runs would not compare: {', '.join(differing)}",
                  file=sys.stderr)
            return 2
        trees = {"parent": Path(tmp), "change": ROOT}
        lines = {side: line_count(tree) for side, tree in trees.items()}
        results = {w["name"]: bench_workload(trees, w["name"], spec)
                   for w in spec["workloads"]}
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                           text=True, check=True).stdout.strip() != ""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    report = {
        "parent": {"ref": args.parent_ref, "sha": parent_sha},
        "change": {"head": head, "uncommitted_changes": dirty},
        "settings": {"pairs": PAIRS, "traced_pairs": TRACED_PAIRS,
                     "seconds": spec["run_seconds"], "seed": SEED,
                     "held_out_pairs": HELD_OUT_PAIRS, "held_out_seed": HELD_OUT_SEED,
                     "trace": "end-to-end untraced; per-layer from alternating traced pairs, "
                              "median per side"},
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "lines": lines,
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for w, r in results.items():
        for seed, section in ((SEED, r), (HELD_OUT_SEED, r["held_out"])):
            verdicts = ", ".join(f"{m} {e['verdict']} ({e['change_over_parent']:.2f}x)"
                                 for m, e in section["end_to_end"].items())
            print(f"{w} seed {seed}: {verdicts}; "
                  f"fingerprints equal: {section['fingerprints_equal']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
