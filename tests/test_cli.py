import pytest

from waynet.cli import main


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


def test_bench_runs(capsys):
    code, out, _ = run(capsys, "bench", "--n", "200")
    assert code == 0
    assert "point monitor" in out and "interval monitor" in out
