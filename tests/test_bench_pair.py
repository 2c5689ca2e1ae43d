import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]


@pytest.mark.parametrize("change, better, verdict", [
    ([300.0 + i for i in range(10)], "higher", "gain"),
    ([30.0 + i for i in range(10)], "lower", "gain"),
    ([70.0] * 10, "higher", "regression"),
    ([p + 0.1 * (-1) ** i for i, p in enumerate(PARENT)], "higher", "unchanged"),
    ([95.0] * 9 + [500.0], "higher", "unchanged"),  # 1 win in 10 is no gain
])
def test_compare_verdicts(change, better, verdict):
    result = bench_pair.compare(PARENT, change, better, bound=0.2)
    assert result["verdict"] == verdict
    assert result["parent"]["runs"] == PARENT and result["change"]["runs"] == change


def test_compare_unresolved_when_parent_spread_exceeds_bound():
    parent = [50.0, 150.0] * 5
    assert bench_pair.compare(parent, [100.0] * 10, "higher", 0.2)["verdict"] == "unresolved"
    # Every change run better than every parent run resolves it.
    assert bench_pair.compare(parent, [160.0] * 10, "higher", 0.2)["verdict"] != "unresolved"


def test_paired_runs_alternate_which_side_runs_first():
    calls = []
    runs = bench_pair.paired_runs(lambda side: calls.append(side) or len(calls), 3)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert runs == {"parent": [1, 4, 5], "change": [2, 3, 6]}


def test_per_layer_records_every_traced_run_and_its_median():
    def run(**values):
        return {"metrics": {name: {"value": v} for name, v in values.items()}}
    traced = {"parent": [run(a=3.0, b=1.0), run(a=1.0, b=1.0), run(a=2.0)],
              "change": [run(a=5.0, b=1.0), run(a=4.0, b=1.0), run(a=9.0, b=1.0)]}
    layers = bench_pair.per_layer(traced, ["a", "b"])
    assert layers == {"a": {"parent": {"median": 2.0, "runs": [3.0, 1.0, 2.0]},
                            "change": {"median": 5.0, "runs": [5.0, 4.0, 9.0]}}}


def test_bench_workload_adds_held_out_pairs_at_another_seed(monkeypatch):
    spec = {"run_seconds": 30,
            "end_to_end": [{"name": "throughput_per_s", "better": "higher", "bound": 0.2}],
            "per_layer": [{"name": "layer"}]}
    calls = []

    def fake(tree, workload, seconds, trace, seed):
        calls.append((tree, trace, seed))
        value = (200.0 if tree == "change" else 100.0) + len(calls)
        return {"metrics": {"throughput_per_s": {"value": value}, "layer": {"value": 1.0}},
                "detail": {"fingerprint": {"seed": seed}}, "failed": 0, "attempted": 5}

    monkeypatch.setattr(bench_pair, "perfbench", fake)
    result = bench_pair.bench_workload({"parent": "parent", "change": "change"}, "w", spec)
    assert [c[1:] for c in calls] == [(0, 1)] * 20 + [(1, 1)] * 6 + [(0, 2)] * 6
    assert [c[0] for c in calls[26:]] == ["parent", "change", "change", "parent",
                                          "parent", "change"]
    held_out = result["held_out"]
    assert held_out["seed"] == 2 and held_out["fingerprints_equal"]
    throughput = held_out["end_to_end"]["throughput_per_s"]
    assert throughput["pairs"] == 3 and throughput["verdict"] == "gain"
    assert held_out["attempted"] == {"parent": 15, "change": 15}
    # The seed-2 runs' fingerprint differs from seed 1's and is kept apart.
    assert result["fingerprints_equal"] and result["fingerprint"] == {"seed": 1}
    assert result["end_to_end"]["throughput_per_s"]["pairs"] == 10


def _tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


BENCH_TREE = {"BENCHMARK.json": "{}", "perfbench/run.py": "run", "perfbench/README.md": "doc"}


def test_differing_files_names_each_file_only_one_tree_has_or_that_differs(tmp_path):
    parent = _tree(tmp_path / "parent", BENCH_TREE)
    change = _tree(tmp_path / "change", {**BENCH_TREE, "src/other.py": "not the benchmark",
                                         "perfbench/__pycache__/run.pyc": "cache"})
    assert bench_pair.differing_files(parent, change) == []
    _tree(change, {"BENCHMARK.json": "{ }", "perfbench/new.py": "new"})
    (change / "perfbench" / "README.md").unlink()
    assert bench_pair.differing_files(parent, change) == [
        "BENCHMARK.json", "perfbench/README.md", "perfbench/new.py"]


def test_main_refuses_to_run_when_the_benchmark_differs(tmp_path, monkeypatch, capsys):
    change = _tree(tmp_path / "change", BENCH_TREE)

    def export(ref, into):
        _tree(into, {**BENCH_TREE, "perfbench/run.py": "edited"})
        return "0" * 40

    monkeypatch.setattr(bench_pair, "ROOT", change)
    monkeypatch.setattr(bench_pair, "export", export)
    monkeypatch.setattr(bench_pair, "perfbench",
                        lambda *args: pytest.fail("a benchmark ran"))
    assert bench_pair.main(["parent", "--pr", "0"]) == 2
    err = capsys.readouterr().err
    assert "perfbench/run.py" in err and "README" not in err
    assert not (change / "BENCH_0.json").exists()


def test_line_count_matches_wc_on_each_tree(tmp_path):
    trees = {"parent": _tree(tmp_path / "parent", {"src/waynet/a.py": "1\n2\n",
                                                   "src/waynet/b.py": "1\n2\n3"}),
             "change": _tree(tmp_path / "change", {"src/waynet/a.py": "1\n",
                                                   "src/waynet/notes.txt": "1\n2\n",
                                                   "src/waynet/sub/c.py": "1\n2\n"})}
    assert {side: bench_pair.line_count(tree) for side, tree in trees.items()} == {
        "parent": 4, "change": 1}
    wc = subprocess.run(["wc", "-l", *sorted((trees["parent"] / "src" / "waynet").glob("*.py"))],
                        capture_output=True, text=True, check=True).stdout
    assert int(wc.splitlines()[-1].split()[0]) == 4
