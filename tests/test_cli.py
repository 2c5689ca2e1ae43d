import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from waynet import cli
from waynet.cli import main
from waynet.plan import PlanError, gen_environment, parse_plan, serialize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_env_check_plan_round_trip(tmp_path, capsys):
    plan = tmp_path / "rect.plan"
    code, out, _ = run(capsys, "gen-env", "rect", "--scale", "40",
                       "--out", str(plan))
    assert code == 0
    code, out, _ = run(capsys, "check-plan", str(plan))
    assert code == 0
    assert "ok:" in out and "8 edges" in out


def test_gen_env_stdout(capsys):
    code, out, _ = run(capsys, "gen-env", "turns")
    assert code == 0
    assert out.startswith("node ")
    assert "start " in out


def test_check_plan_invalid_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.plan"
    bad.write_text("node a 0 0 0 1\nedge a zz line\nstart a\n")
    code, _, err = run(capsys, "check-plan", str(bad))
    assert code == 2
    assert "error:" in err


_FINITE_PLAN = "node a {X} {Y} {vl} {vh}\nnode b 10 0 1 5\nedge a b arc {k}\nstart a\n"
_FINITE_FIELDS = {"X": "0", "Y": "0", "vl": "1", "vh": "5", "k": "0.05"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", list(_FINITE_FIELDS))
def test_check_plan_non_finite_exits_2(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.plan"
    bad.write_text(_FINITE_PLAN.format(**{**_FINITE_FIELDS, field: value}))
    code, out, err = run(capsys, "check-plan", str(bad))
    assert code == 2
    assert "ok" not in out
    assert ("edge 'a'->'b'" if field == "k" else "node 'a'") in err
    assert "non-finite" in err


def test_simulate_interval_mode_inf_limit_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.plan"
    bad.write_text(_FINITE_PLAN.format(**{**_FINITE_FIELDS, "vh": "inf"}))
    code, _, err = run(capsys, "simulate", "--plan", str(bad), "--interval-mode",
                       "--episodes", "1")
    assert code == 2
    assert "non-finite" in err


def test_check_plan_start_without_outgoing_edge_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.plan"
    bad.write_text("node a 0 0 0 1\nnode b 5 0 0 1\nedge b a line\nstart a\n")
    for command in (["check-plan", str(bad)], ["simulate", "--plan", str(bad)]):
        code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        assert "start node 'a' has no outgoing edges" in err


@pytest.mark.parametrize("k", ["1e-310", "1e-300"])
def test_arc_floats_cannot_hold_exits_2(tmp_path, capsys, k):
    # 1e-310: the radius overflows and simulate used to raise ZeroDivisionError;
    # 1e-300: the circle swamps the 20 m chord and no episode used to complete.
    bad = tmp_path / "bad.plan"
    bad.write_text(f"node a 0 0 1 5\nnode b 20 0 1 5\nedge a b arc {k}\nstart a\nterminal b\n")
    for command in (["check-plan", str(bad)], ["simulate", "--plan", str(bad), "--episodes", "1"]):
        code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        assert "arc edge 'a'->'b'" in err and "use a line" in err


@pytest.mark.parametrize("kind", ["line", "arc 0.5"])
def test_self_loop_edge_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / "bad.plan"
    bad.write_text("node s 0 0 2 6\nnode a 20 0 2 6\nnode b 40 0 2 6\n"
                   f"edge s a line\nedge a a {kind}\nedge a b line\nstart s\nterminal b\n")
    for command in (["check-plan", str(bad)], ["simulate", "--plan", str(bad), "--episodes", "1"]):
        code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        assert "edge 'a'->'a' loops back to its own node" in err


_ZERO_START = ("node a 0 0 1 5\nnode b 0 0 1 5\nnode c 0 20 1 5\n"
               "edge a b line\nedge b c line\nstart a\nterminal c\n")


def test_check_plan_zero_length_start_line_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.plan"
    bad.write_text(_ZERO_START)
    code, out, err = run(capsys, "check-plan", str(bad))
    assert code == 2
    assert out == ""
    assert "start edge 'a'->'b'" in err


def test_check_plan_zero_length_line_mid_course_ok(tmp_path, capsys):
    plan = tmp_path / "mid.plan"
    plan.write_text("node s 0 -10 1 5\n" + _ZERO_START.replace("start a", "edge s a line\nstart s"))
    code, out, _ = run(capsys, "check-plan", str(plan))
    assert code == 0
    assert out.startswith("ok: 4 nodes, 3 edges")


_AB = "node a 0 0 0 1\nnode b 5 0 0 1\n"

# One minimal plan per error that PlanGraph construction raises, with the full
# message; each plan has that one fault.
_CONSTRUCTION_ERRORS = {
    "unknown start": (_AB + "edge a b line\nstart z\n", "unknown start node 'z'"),
    "unknown terminal": (_AB + "edge a b line\nstart a\nterminal z\n",
                         "unknown terminal node 'z'"),
    "non-finite number": ("node a nan 0 0 1\nnode b 5 0 0 1\nedge a b line\nstart a\n",
                          "node 'a': non-finite number"),
    "empty interval": ("node a 0 0 1 1\nnode b 5 0 0 1\nedge a b line\nstart a\n",
                       "node 'a': non-positive speed interval width"),
    "negative vl": ("node a 0 0 -1 1\nnode b 5 0 0 1\nedge a b line\nstart a\n",
                    "node 'a': negative lower speed limit"),
    "unknown node": (_AB + "edge a zz line\nstart a\n", "edge references unknown node 'zz'"),
    "self-loop": (_AB + "edge a a line\nstart a\n", "edge 'a'->'a' loops back to its own node"),
    "non-finite curvature": (_AB + "edge a b arc -inf\nstart a\n",
                             "edge 'a'->'b': non-finite curvature"),
    "zero curvature": (_AB + "edge a b arc 0\nstart a\n", "arc edge 'a'->'b' has zero curvature"),
    "coincident arc": ("node a 1 1 0 1\nnode b 1 1 0 1\nedge a b arc 0.5\nstart a\n",
                       "arc edge 'a'->'b': endpoints coincide"),
    "chord too long": (_AB + "edge a b arc 1\nstart a\n",
                       "arc edge 'a'->'b': endpoints 5 m apart do not fit on a circle of "
                       "radius 1 m"),
    "arc too flat": (_AB + "edge a b arc 1e-300\nstart a\n",
                     "arc edge 'a'->'b': curvature 1e-300 is too small for floats to hold "
                     "its circle; use a line"),
    "zero-length start": ("node a 0 0 0 1\nnode b 0 0 0 1\nedge a b line\nstart a\n",
                          "start edge 'a'->'b': a line of zero length gives no start heading"),
    "start without edge": (_AB + "edge b a line\nstart a\n",
                           "start node 'a' has no outgoing edges"),
    "line too long for floats": ("node a 0 0 1 5\nnode b 1e160 0 1 5\nedge a b line\n"
                                 "start a\nterminal b\n",
                                 "edge 'a'->'b': its squared length overflows floats "
                                 "(the nodes are 1e+160 m apart)"),
    "arc too long for floats": ("node a 0 0 1 5\nnode b 0 -1e160 1 5\nedge a b arc 1e-160\n"
                                "start a\n",
                                "edge 'a'->'b': its squared length overflows floats "
                                "(the nodes are 1e+160 m apart)"),
}


@pytest.mark.parametrize("fault", list(_CONSTRUCTION_ERRORS))
def test_each_plan_construction_error_exits_2(tmp_path, capsys, fault):
    text, message = _CONSTRUCTION_ERRORS[fault]
    with pytest.raises(PlanError) as exc:
        parse_plan(text)
    assert str(exc.value) == message
    bad = tmp_path / "bad.plan"
    bad.write_text(text)
    assert run(capsys, "check-plan", str(bad)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("x", ["1e160", "1e308"])
def test_simulate_plan_too_long_for_floats_exits_2_before_any_episode(tmp_path, capsys, x):
    # The line's squared length overflows: its projection would always read 0.
    plan = tmp_path / "far.plan"
    plan.write_text(f"node a -{x} 0 1 5\nnode b {x} 0 1 5\nedge a b line\nstart a\nterminal b\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "simulate", "--plan", str(plan), "--controller", "pd1",
                         "--episodes", "1", "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("error: edge 'a'->'b': its squared length overflows floats")
    assert not out_dir.exists()


def test_check_plan_repeated_start_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.plan"
    bad.write_text(_AB + "edge a b line\nedge b a line\nstart a\nstart b\n")
    assert run(capsys, "check-plan", str(bad)) == \
        (2, "", "error: line 6: duplicate start directive (start is 'a')\n")


def test_check_plan_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check-plan", "/nonexistent/x.plan")
    assert code == 2


def test_simulate_deterministic_with_seed(tmp_path, capsys):
    args = ("simulate", "--env", "rect", "--controller", "pd1",
            "--episodes", "2", "--seed", "42",
            "--disturbance", "0.05,0.002,0.05,0.1")
    code1, out1, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    code2, out2, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    assert out1 == out2
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "summary.csv").exists()
    assert (tmp_path / "a" / "ep_rect_pd1_0000.csv").exists()


def test_simulate_adversarial_unmonitored_exits_1(capsys):
    code, out, _ = run(capsys, "simulate", "--env", "rect",
                       "--controller", "adversarial", "--episodes", "3",
                       "--no-monitor")
    assert code == 1


def test_simulate_adversarial_monitored_exits_0(capsys):
    code, _, _ = run(capsys, "simulate", "--env", "rect",
                     "--controller", "adversarial", "--episodes", "3")
    assert code == 0


def test_simulate_bad_controller_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--controller", "rogue")
    assert code == 2
    assert "unknown controller" in err


def test_simulate_bad_env_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--env", "atlantis")
    assert code == 2


@pytest.mark.parametrize("flag, names", [("--env", "rect,turns,rect"),
                                         ("--controller", "pd1,pd1")])
def test_simulate_repeated_name_exits_2(capsys, flag, names):
    # A repeated course used to collapse into one while a repeated controller ran
    # each seed twice, so the summary counted twice the episodes asked for.
    code, out, err = run(capsys, "simulate", flag, names, "--episodes", "1")
    assert code == 2
    assert out == ""
    assert "repeated in " + flag in err


@pytest.mark.parametrize("value, reason", [
    ("0,nan,0,0", "curvature_bias must be finite"),
    ("1.5,0,0,0", "|curvature_gain_error| must be < 1"),
    ("1,2,3", "expects gain,bias,accel,jitter"),
])
def test_simulate_bad_disturbance_exits_2(capsys, value, reason):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--disturbance", value])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_simulate_rejects_episodes_below_1(capsys, episodes):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--episodes", episodes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--episodes" in captured.err


@pytest.mark.parametrize("max_cycles", ["0", "-5"])
def test_simulate_rejects_max_cycles_below_1(tmp_path, capsys, max_cycles):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--max-cycles", max_cycles, "--out", str(out_dir)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-cycles" in captured.err
    assert not out_dir.exists()


def test_simulate_overflowing_cycle_exits_2(capsys):
    # A*T^2 overflows for a 1e308 s cycle: rejected before the first cycle.
    code, out, err = run(capsys, "simulate", "--episodes", "1", "--cycle", "1e308")
    assert code == 2
    assert out == ""
    assert "Params.accel_max * cycle_max**2 must be finite" in err


def test_simulate_state_overflow_is_stopped_in_the_loop(capsys):
    # A*T^2 = 1e306 passes the boundary, but unmonitored full acceleration
    # grows the vehicle state past the largest float within a few cycles.
    code, out, err = run(capsys, "simulate", "--env", "rect", "--controller", "adversarial",
                         "--no-monitor", "--episodes", "1", "--accel", "1", "--brake", "1",
                         "--cycle", "1e153", "--max-cycles", "400")
    assert code == 2
    assert out == ""
    assert "vehicle state overflowed" in err


def test_simulate_with_plan_file(tmp_path, capsys):
    plan = tmp_path / "course.plan"
    run(capsys, "gen-env", "rect", "--scale", "30", "--out", str(plan))
    code, out, _ = run(capsys, "simulate", "--plan", str(plan),
                       "--controller", "liveness", "--episodes", "1")
    assert code == 0
    assert "course" in out


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["simulate", "--episodes", "1"], ["gen-env", "rect"]])
def test_bad_scale_exits_2(capsys, command, scale):
    code, out, err = run(capsys, *command, "--scale", scale)
    assert code == 2
    assert "scale" in err


@pytest.mark.parametrize("scale", ["0", "40", "nan"])
def test_simulate_plan_rejects_scale(tmp_path, capsys, scale):
    # A plan file has no scale: even a valid --scale must not pass silently.
    plan = tmp_path / "rect.plan"
    run(capsys, "gen-env", "rect", "--out", str(plan))
    code, out, err = run(capsys, "simulate", "--plan", str(plan), "--episodes", "1",
                         "--scale", scale)
    assert code == 2
    assert out == ""
    assert "--scale" in err


@pytest.mark.parametrize("env", ["clover", "bogus"])
def test_simulate_plan_rejects_env(tmp_path, capsys, env):
    # A plan file is the course: --env, known or not, must not pass silently.
    plan = tmp_path / "rect.plan"
    run(capsys, "gen-env", "rect", "--out", str(plan))
    code, out, err = run(capsys, "simulate", "--plan", str(plan), "--episodes", "1",
                         "--env", env)
    assert code == 2
    assert out == ""
    assert "--env" in err


@pytest.mark.parametrize("name", ["rect", "turns", "clover"])
def test_gen_env_plan_is_the_simulated_course(tmp_path, capsys, name):
    plan = tmp_path / f"{name}.plan"
    assert run(capsys, "gen-env", name, "--out", str(plan))[0] == 0
    common = ("--controller", "pd1", "--episodes", "2", "--seed", "3")
    run(capsys, "simulate", "--env", name, *common, "--out", str(tmp_path / "env"))
    run(capsys, "simulate", "--plan", str(plan), *common, "--out", str(tmp_path / "plan"))
    assert (tmp_path / "env" / "summary.csv").read_bytes() == \
        (tmp_path / "plan" / "summary.csv").read_bytes()


def test_monitor_eval_on_produced_log(tmp_path, capsys):
    run(capsys, "simulate", "--env", "rect", "--controller", "liveness",
        "--episodes", "1", "--out", str(tmp_path))
    log = tmp_path / "ep_rect_liveness_0000.csv"
    code, out, _ = run(capsys, "monitor-eval", str(log))
    assert code == 0
    assert "total:" in out
    assert "pass:" in out


def test_monitor_eval_judges_the_proposal_the_gate_judged(tmp_path, capsys):
    # On a rejected cycle a_acted is the braking fallback; the gate judged a_cmd.
    run(capsys, "simulate", "--env", "rect", "--controller", "adversarial",
        "--episodes", "1", "--seed", "1", "--out", str(tmp_path))
    log = tmp_path / "ep_rect_adversarial_0000.csv"
    verdicts = [row.split(",")[-2:] for row in log.read_text().splitlines()[1:]]
    assert all(plant == "pass" for _, plant in verdicts)  # every verdict came from a gate call
    logged = {label: sum(ctrl == label for ctrl, _ in verdicts)
              for label in ("pass", "upper_speed")}
    assert logged == {"pass": 43, "upper_speed": 42} and len(verdicts) == 85
    code, out, _ = run(capsys, "monitor-eval", str(log))
    assert code == 0
    assert out == "pass: 43\nupper_speed: 42\ntotal: 85 cycles, 42 rejected\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", [2, 5])  # X and v
def test_monitor_eval_rejects_non_finite(tmp_path, capsys, column, value):
    run(capsys, "simulate", "--env", "rect", "--controller", "liveness",
        "--episodes", "1", "--max-cycles", "3", "--out", str(tmp_path))
    log = tmp_path / "ep_rect_liveness_0000.csv"
    lines = log.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    log.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "monitor-eval", str(log))
    assert code == 2
    assert out == ""
    name = lines[0].split(",")[column]
    assert f"{log}:3: non-finite {name}" in err


def test_monitor_eval_rejects_garbage(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,log\n")
    code, _, err = run(capsys, "monitor-eval", str(junk))
    assert code == 2


def test_verify_oracle_small(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--n", "50")
    assert code == 0
    assert "go_oracle" in out and "ok" in out


def test_verify_progress_single_case(capsys):
    code, out, _ = run(capsys, "verify", "progress", "--n", "30",
                       "--case", "slowdown")
    assert code == 0
    assert "progress_slowdown" in out


@pytest.mark.parametrize("check", ["invariant", "oracle"])
def test_verify_case_without_progress_exits_2(capsys, check):
    code, out, err = run(capsys, "verify", check, "--case", "cruise", "--n", "3")
    assert code == 2
    assert out == ""
    assert "--case" in err


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("check", ["invariant", "progress", "oracle", "all"])
def test_verify_rejects_count_below_1(capsys, check, n):
    with pytest.raises(SystemExit) as exc:
        main(["verify", check, "--n", n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n" in captured.err


def test_main_calls_in_one_process_match_separate_processes(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; a usage error must not leave
    # state that a later call sees. Each call is also run in a fresh process.
    monkeypatch.setenv("COLUMNS", "80")  # the same usage line width in both
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    plan = tmp_path / "turns.plan"
    plan.write_text(serialize(gen_environment("turns")))
    calls = [["simulate", "--no-such-flag"],
             ["simulate", "--env", "rect", "--episodes", "1", "--max-cycles", "60",
              "--disturbance", "0.1,0.002,0.1,0.1"],
             ["verify", "oracle", "--n", "20"],
             ["check-plan", str(plan)]]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "waynet.cli", *argv],
                               capture_output=True, text=True)
        assert (code, captured.out, captured.err) == \
            (alone.returncode, alone.stdout, alone.stderr), argv
        assert code == (2 if argv == calls[0] else 0), argv


# sha256 of every file `simulate --out` writes for this grid, recorded at commit
# ba3f379. A change that alters any trajectory re-derives these digests from
# its own output and says why; it does not tune them.
_GRID_ARGV = ["simulate", "--env", "all", "--controller", "pd1,liveness,bangbang",
              "--episodes", "2", "--disturbance", "0.1,0.002,0.1,0.1", "--seed", "1"]
_GRID_DIGESTS = {
    "ep_clover_bangbang_0000.csv": "468342fbb3051a94feb498c2fdf4988d10152618eaead17dba8f3c6e1ab1a965",
    "ep_clover_bangbang_0001.csv": "ad6b5a98daf3f75abbeaacb79892af329c54b225d80e53bf5ac87f3ae8450604",
    "ep_clover_liveness_0000.csv": "6e6208b077720b0cf3b6159e99268366393e2213795f4ed0fbc0e9c9b60fc5ac",
    "ep_clover_liveness_0001.csv": "9e6d03cdef83a571689c84b1b0e4cc8559d0b604ea4dab19463f6928417cf66a",
    "ep_clover_pd1_0000.csv": "ba774262c25dd6b7138d1053dad42a75b12133ff50477f0958219c9b2107e280",
    "ep_clover_pd1_0001.csv": "d6aed6a84720fb71a802cfca63e7d1afe323a8844092c01ce9c9509d9a8615ed",
    "ep_rect_bangbang_0000.csv": "7a221e51e088567e02563c4d9e28c3130bd867d21fddbbff4b81eb9c021ae068",
    "ep_rect_bangbang_0001.csv": "bad664dacad85ab37b2ad5d483f0d7581e1d63be3afa7b7e341a055c78534cfe",
    "ep_rect_liveness_0000.csv": "a6bb32345024d5367973ae441dd1b187dfcea048ea7be0d93ef119b08fe09087",
    "ep_rect_liveness_0001.csv": "f3a9a27863746cabd0e290f816321e9fea7a64671dd839d0006a3a1a10f41c72",
    "ep_rect_pd1_0000.csv": "f796be1ab176e6c5dd8a980c0f6e7a03815cd460928cfbc3fedb7dab4e2b9004",
    "ep_rect_pd1_0001.csv": "23edc490f6939dee34873746b41473e62cf48b603bf0f9d37c4b451983b12073",
    "ep_turns_bangbang_0000.csv": "2bee50c38f780636b02a8b4be5439d61a3db7900d89994bb23635b39978148df",
    "ep_turns_bangbang_0001.csv": "62e659abd6ad7486dca662490d4bd117122eec01267a5835add72dd7982e8da9",
    "ep_turns_liveness_0000.csv": "1c2a64b4b28a96ad094f2427257364d31f85b9954c54fd044334a923f372fe87",
    "ep_turns_liveness_0001.csv": "92b6c3828654fc8c6f25ac8105ee13ee7c3b1609a77dcc53d45f2b96b4059b39",
    "ep_turns_pd1_0000.csv": "891da3e5a7bce94b068f9e1c2501ba8afdc8c8ae4785ca4c2cf3659a0cd285a9",
    "ep_turns_pd1_0001.csv": "183adc92bef14bbe8da1cf8b388e7c59a1b5f7f1d8af9224fee34f59a07e2933",
    "summary.csv": "5a07dfe1af37a16a97793f9cf0547965bf60981f9429c42087fdb96e11687478",
    "summary.txt": "b287d58a32a0dc08cfe4a1646038eb9f032254b064e93e8598e2dcdc3d0eeba4",
}


# The same check for an --interval-mode run under a heavier disturbance,
# recorded at commit ff89311. It exits 1 because its adversarial cells record
# safety violations. No run of this grid logs interval_undecided, so it pins
# trajectories, not certification.
_INTERVAL_GRID_ARGV = ["simulate", "--env", "all", "--controller",
                       "pd1,liveness,bangbang,adversarial", "--episodes", "2",
                       "--disturbance", "0.2,0.01,0.2,0.3", "--seed", "3", "--interval-mode"]
_INTERVAL_GRID_DIGESTS = {
    "ep_clover_adversarial_0000.csv": "4b439817ef0aad068f2804876aa840321b852e7a3fe741b87c87aee1bcb5c88d",
    "ep_clover_adversarial_0001.csv": "a0a2cab0f59c86068b352d1338de1240dfe4992bbd88c74a25745430d793debd",
    "ep_clover_bangbang_0000.csv": "38fbd356553f6afbe63b083cd02706e3dcc053d4d5ecc98e5b0e20b7e3cd4263",
    "ep_clover_bangbang_0001.csv": "57a726f78e62e18cb22c16c6d3b38d952fd0e4f8d0bd112ad0e1aa611a28846a",
    "ep_clover_liveness_0000.csv": "9ba793837010fcafc534db8e16d6670d15d2fed3c2782237774335809222aa5c",
    "ep_clover_liveness_0001.csv": "4112cfd375530b0c9fb3e88414d47d415dc0953a376d10d8a37450d7bd4b7da5",
    "ep_clover_pd1_0000.csv": "777589f35e34f273bac78f747a9fdff87b74102059e6eeee6d7d848f71d30500",
    "ep_clover_pd1_0001.csv": "890ded7150a7cd4ff7ed3acaf42d3a07fdd1d8ddc03bf9235cef4cc624bb95e0",
    "ep_rect_adversarial_0000.csv": "aa5ca604af15065faed2bd9dfa0ef3618f76fce045295b89cfb21c1930f35ff9",
    "ep_rect_adversarial_0001.csv": "0dc1449ee8da49f8b00d1f4d7f13e04ac6a13cf5d1c3ad207f3b3ef37a374298",
    "ep_rect_bangbang_0000.csv": "cdfdca0724a453fb7dc5a915e3e804840055afce399d2689652a166ad59b8c66",
    "ep_rect_bangbang_0001.csv": "7c90fa99a77d4edd3c88fb5432bf78f2ba4c06809e43c7e7d3278a04970da8ce",
    "ep_rect_liveness_0000.csv": "7d2a944c02ac5189eae0d21d73fe5478034bdcd36acba81871cedc7f54aab74b",
    "ep_rect_liveness_0001.csv": "a2e7b7e9985c4a08571c74cdb2d3972e08175171da0f056ae6822e0f513b6b88",
    "ep_rect_pd1_0000.csv": "4547e85efe52841ec998587de4beb2fe1e279ec6a077e33d1de603378d7339f0",
    "ep_rect_pd1_0001.csv": "f3c8b88a3135b530c91e19150da3dc12adad91b527e638b66e12ae5e51da17ee",
    "ep_turns_adversarial_0000.csv": "a34e6267e0a58667e3bc2843569062df44bc68dc98be7ed3e3cce4add5dbe2a0",
    "ep_turns_adversarial_0001.csv": "1e7c86cad05c208a3518d1cf459cc6c949f11c518bd6222cfd3868be47e93a5b",
    "ep_turns_bangbang_0000.csv": "35a8cb364d9b6935e88618ab29494a67e941961c31115b5b2e5736eb5e6c6758",
    "ep_turns_bangbang_0001.csv": "487f62dd6ffb86080e0b73db3f7158c2c2272ff88c65893a5e5ded9c2de114dc",
    "ep_turns_liveness_0000.csv": "e9169c9f51cfa9ffdc9c98eac55ccba5ed7e8c3629df14ffae4c8dbd10647a22",
    "ep_turns_liveness_0001.csv": "63fb3c1e3d0c50740a6e58261dfb91009d7ebd206d5ba79f1b017b717c056bf7",
    "ep_turns_pd1_0000.csv": "9ec90ca38777e30f109a3d6c47700be4019a4afa5699faf8b114d6a7a1216665",
    "ep_turns_pd1_0001.csv": "17a47e586bfca2c2efc9539291da281112661a53a4233f088103209c14c7a109",
    "summary.csv": "6117fedd2e1f3dbf58fc641d869bc9791d89453bd44f8a6c2fe2536a06510048",
    "summary.txt": "79d290d540f1c7cd8ff9981ac8d6c2244c03332f3d98ecdac62b37d3793d3a69",
}


# The same check for the three controllers the grids above leave out,
# recorded at commit 643014b, before any edit to the controllers, so that a
# retuned or swapped PD law shows here.
_PD_GRID_ARGV = ["simulate", "--env", "all", "--controller", "pd2,pd3,adversarial",
                 "--episodes", "2", "--disturbance", "0.1,0.002,0.1,0.1", "--seed", "1"]
_PD_GRID_DIGESTS = {
    "ep_clover_adversarial_0000.csv": "899b0e7c897de9b7900f8712cf546258c74fb42bf3b5e5bd978a84f8ea9ab213",
    "ep_clover_adversarial_0001.csv": "3d9f36d06af6cd9db7ad6d917ab2e99545a27b4231635560b290f48461d95250",
    "ep_clover_pd2_0000.csv": "05161c55ea9dcad33037f2e00dd24ec0d6d0a07db8b7c11b5e9d01ce98be631d",
    "ep_clover_pd2_0001.csv": "d881452cc570db6400d9edaff09b56823b5d64e974ada154c450be9eaa8d2e8d",
    "ep_clover_pd3_0000.csv": "c97d2df49255403c53c181b1723e76043264e10da149b73b29833aa50bc56543",
    "ep_clover_pd3_0001.csv": "d215f491be22039a0067a7187d36d5264b2cd5a508b57e29c2eda2045a226176",
    "ep_rect_adversarial_0000.csv": "c57b4123ce67389e26acffed2c65664752ea79ea80ee4df7a2a3ffebf3a7421e",
    "ep_rect_adversarial_0001.csv": "c640311a86c25382c70741dcc364df09342acc25f2d951259bdd8e2b02663300",
    "ep_rect_pd2_0000.csv": "8afe28b153747c0df30c369736d3cd1a9de6c1215d1b09fe87d3e689e784f272",
    "ep_rect_pd2_0001.csv": "53dd82719f56bebad97c8384a04a21ed992dba4735686720bb1493e6aab9ca35",
    "ep_rect_pd3_0000.csv": "c1b116fb40091722ed3e0c522b3373b4dbd35efa88e9d70d43ccc2bf22eed6b1",
    "ep_rect_pd3_0001.csv": "1b4d20fc62c21547ec98f4b07b487a4dce4e0da6d71c4577d61c9f28e8bb4a6b",
    "ep_turns_adversarial_0000.csv": "9025ebad204acddb48b88e21413fd00751866345ac1e5d942c63fd493a63a3a2",
    "ep_turns_adversarial_0001.csv": "0ac9f2e1eb3725ed5b87a7e712ea236171c06e8d651b8e168c4672c825093b1b",
    "ep_turns_pd2_0000.csv": "470e31987d57dc5bd2d5d16580c3d055cc111bfa69599c9586b66a6129951b0e",
    "ep_turns_pd2_0001.csv": "ea11005f27682a4300f124528d5da211e9a2ed54fdc25f5ffe025c3145945c3f",
    "ep_turns_pd3_0000.csv": "24aa6f722a73ff3790f3ff095a5253f3c755b6c24f49a43a49b8e2ac2fa387ad",
    "ep_turns_pd3_0001.csv": "2a54d5b9cc0966d7d99131bafbb67d8e3e0cd909a031c14a4aef7a1eadec96f6",
    "summary.csv": "45de21e004fb88a609bb17608f6c7fcb9b7568ed60472df94984ab496110a5fe",
    "summary.txt": "1ced2e26964fae45cae98feb9192453a8cb846692b79022a271c023d851a488f",
}


def _run_digests(tmp_path, capsys, argv):
    """Exit code, sha256 of every file written to --out, and of stdout."""
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    return code, digests, hashlib.sha256(out.encode()).hexdigest()


def test_simulate_outputs_are_byte_identical_to_recorded_digests(tmp_path, capsys):
    code, digests, out = _run_digests(tmp_path, capsys, _GRID_ARGV)
    assert code == 0
    assert digests == _GRID_DIGESTS
    assert out == _GRID_DIGESTS["summary.txt"]


def test_interval_mode_outputs_are_byte_identical_to_recorded_digests(tmp_path, capsys):
    code, digests, out = _run_digests(tmp_path, capsys, _INTERVAL_GRID_ARGV)
    assert code == 1
    assert digests == _INTERVAL_GRID_DIGESTS
    assert out == _INTERVAL_GRID_DIGESTS["summary.txt"]


def test_pd_grid_outputs_are_byte_identical_to_recorded_digests(tmp_path, capsys):
    code, digests, out = _run_digests(tmp_path, capsys, _PD_GRID_ARGV)
    assert code == 0
    assert digests == _PD_GRID_DIGESTS
    assert out == _PD_GRID_DIGESTS["summary.txt"]


# sha256 of the stdout of `verify all --n 300 --seed 4`, recorded at commit
# 9ea113b. Its note carries each progress check's minimum decrease rate to six
# digits, so a change to the flow's arithmetic shows here.
_VERIFY_ARGV = ["verify", "all", "--n", "300", "--seed", "4"]
_VERIFY_DIGEST = "6aac768e2d1bfb3c871c8f8e451387ad7ffbea54e39dfea75ae800bc607ea529"


def test_verify_output_is_byte_identical_to_recorded_digest(capsys):
    code, out, _ = run(capsys, *_VERIFY_ARGV)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGEST


# perfbench's `verify` workload runs the five checks of `verify all` at
# `--n 60` and seeds seed*6 + j, 0-17 for its base seeds 0-2, and counts every
# sample of a call that exits non-zero as failed: each must pass exactly.
@pytest.mark.parametrize("seed", range(18))
def test_verify_all_small_batches_pass_exactly(capsys, seed):
    code, out, _ = run(capsys, "verify", "all", "--n", "60", "--seed", str(seed))
    assert code == 0, out
    assert "violation" not in out
    assert out.count(": 60 samples, ok") == 5


# sha256 of the stdout of `verify all --n 60 --seed s` for s = 0-17, the
# perfbench `verify` batches, recorded at commit 7d33f05. Each pins the
# progress checks' minimum decrease rates, which the exit code does not see.
_VERIFY_SMALL_DIGESTS = (
    "1bd0dae69774e4b586112bbf9895cb0ac9abe16007fffab4ba252257dcde31e3",  # seed 0
    "33a5a5d0dd53aa14c4828a700f5701aa1d52822f0b20c7b7247ae19afa9f28fe",  # seed 1
    "d880bbd6571059cac1c6165499b7c632b56c227db6f97079fdec93eccc4d04b2",  # seed 2
    "56d41acc5f6cbd40a509d49f8ee9b9ff44010729de2753736603d2a04f00dc26",  # seed 3
    "06cbc6a971d28e4e2817fe626f71bf69ad79d4422f22b289d81f0f58c582e801",  # seed 4
    "854290c693e98db054fe7a761da54ec1bfc88caa4c1dd792227ceb997d5a5eb2",  # seed 5
    "4cac2280776218161fde26c1d7b81867316f3686b4db19d087d6d9d8355cb10d",  # seed 6
    "fa640cfdd7e5c31aade5738cdd978470b2fdf4cbe7f788f2aa2f2c881ac98a2d",  # seed 7
    "41fdeef5e4697eec7e54dc9273adc78de5a0220b9ba635e72d195b498274036f",  # seed 8
    "af29f0b1f269bb3cb26ad3a98fdcb38f28307077bebf52d2d4ee72778ce990bb",  # seed 9
    "33e9ece32f062f7bce7a75e7f8e0b7db8955891505427c016a503443431f60a8",  # seed 10
    "84959af282a2a953dab00317ea5fbf1df2250117472eba44f458c82abdb3a0b8",  # seed 11
    "dbde1bff57e6f1a50f159afafe34c492af93ae0cddab449935c70c70fd113da7",  # seed 12
    "89452b388521462955b47826a9f507d6aa914fff6f6fbcd2b1bac7d55c5b5764",  # seed 13
    "d8491d3f589105018106f94462b1354dcb3b72dc156c52abdefab18fd80cd43b",  # seed 14
    "6a77d3699de920a1df6ededb82eb220c0dd4a21ebced007e7c42e5f5f51821d8",  # seed 15
    "a3f6d8100bf4ba4c5ae253fe97f5340d4a807bfb2d181ee1077be9254166745a",  # seed 16
    "ae9f44245cc3bcc0716fdcdd21afe01f861d62d72820e88c102fabfa49570027",  # seed 17
)


def test_verify_outputs_are_byte_identical_to_recorded_digests(capsys):
    digests = []
    for seed in range(18):
        _, out, _ = run(capsys, "verify", "all", "--n", "60", "--seed", str(seed))
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == _VERIFY_SMALL_DIGESTS
