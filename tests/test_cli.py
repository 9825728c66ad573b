import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import merge_planner
from merge_planner import report
from merge_planner.cli import _overrides, build_parser, main
from merge_planner.linear_op import DiagGaussian, shrinkage, surrogate_target
from merge_planner.pareto_dp import pareto_dp
from merge_planner.schedule import make_cosine_schedule
from merge_planner.strategy import parse_plan, evaluate_plan
from merge_planner.linear_op import w2_objective


def test_plan_subcommand(tmp_path, capsys):
    rc = main(
        ["plan", "--T", "8", "--s", "6.4", "--lambda", "1.08", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "objective:" in out
    plan = parse_plan((tmp_path / "plan.txt").read_text().strip())
    sched = make_cosine_schedule(8)
    data = DiagGaussian([1.08])
    shrink = shrinkage(sched, data, 6.4)
    surr = surrogate_target(sched, data)
    replayed = w2_objective(evaluate_plan(plan, sched, data, shrink), surr)
    dp = pareto_dp(sched, data, shrink, surr)
    assert abs(replayed - dp.objective) <= 1e-15


def test_sweep_subcommand_with_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[experiment]\nkind = sweep\nT = 8\ns = 6.4\nout = "
        + str(tmp_path / "res")
        + "\n[lambda]\nvalues = 0.5 5.0\n"
    )
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 0
    body = (tmp_path / "res" / "sweep.csv").read_text().splitlines()
    assert len(body) == 3


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MERGE_PLANNER_SEED", "123")
    rc = main(
        [
            "gmm-approx",
            "--T",
            "16",
            "--out",
            str(tmp_path),
            "--k-grid",
            "1",
        ]
    )
    assert rc == 0
    row = (tmp_path / "gmm_approx.csv").read_text().splitlines()[1]
    assert row.split(",")[4] == "123"


def test_cli_seed_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MERGE_PLANNER_SEED", "123")
    rc = main(
        [
            "gmm-approx",
            "--T",
            "16",
            "--seed",
            "7",
            "--out",
            str(tmp_path),
            "--k-grid",
            "1",
        ]
    )
    assert rc == 0
    row = (tmp_path / "gmm_approx.csv").read_text().splitlines()[1]
    assert row.split(",")[4] == "7"


def test_gmm_propagate_subcommand(tmp_path):
    rc = main(
        [
            "gmm-propagate",
            "--T",
            "4",
            "--split",
            "2",
            "--seed",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "gmm_propagate.csv").exists()


def test_verify_rejects_common_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--T", "8"])
    assert exc.value.code == 2
    assert "--T" in capsys.readouterr().err


def test_invalid_lambda_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--lambda", "1,-2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "merge-planner: error: variances must be nonnegative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["gmm-approx", "--k-grid", ","], "k_grid"),
        (["sweep", "--T-grid", ","], "T_grid"),
        (["sweep", "--s-grid", ","], "s_grid"),
    ],
)
def test_empty_grid_is_a_usage_error(tmp_path, capsys, argv, grid):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"merge-planner: error: {grid} must be non-empty" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gmm-approx", "gmm-propagate"])
def test_too_few_samples_is_a_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[gmm]\nn_fit = 0\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "merge-planner: error: n_fit must be at least 1, got 0" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gmm-approx", "gmm-propagate"])
def test_too_few_samples_for_the_affine_fit_is_a_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[gmm]\nn_fit = 2\n")  # the circle mixture is 2-D
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "merge-planner: error: n_fit must be at least d + 1 = 3 for the affine fit, got 2" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, message",
    [("sweep", "schedule_file is set but sweeps use the built-in cosine schedule")],
    ids=["sweep"],
)
def test_schedule_file_without_file_kind_is_a_usage_error(tmp_path, capsys, command, message):
    (tmp_path / "sched.csv").write_text("t,alpha\n0,1.0\n1,0.5\n2,0.0\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[experiment]\nT = 2\nschedule_file = {tmp_path / 'sched.csv'}\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"merge-planner: error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_plan_with_only_a_schedule_file_uses_it(tmp_path, capsys):
    (tmp_path / "sched.csv").write_text("t,alpha\n0,1.0\n1,0.8\n2,0.3\n3,0.0\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[experiment]\nschedule_file = {tmp_path / 'sched.csv'}\n")
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    plan = parse_plan((tmp_path / "out" / "plan.txt").read_text().strip())
    assert plan.interval == (1, 3)  # the file's three steps, not the default cosine 32


@pytest.mark.parametrize("command", ["plan", "sweep", "gmm-approx", "gmm-propagate"])
def test_schedule_file_flag_only_where_a_schedule_file_runs(capsys, command):
    argv = [command, "--schedule-file", "s.csv"]
    if command == "sweep":  # sweeps are defined on the built-in cosine schedule
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --schedule-file s.csv" in capsys.readouterr().err
        return
    over = _overrides(build_parser().parse_args(argv), command)
    assert over == {"kind": command, "schedule_file": "s.csv"}


def test_frontier_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a one-item cap, so the first two-item frontier of this d = 2 plan overflows at once
    monkeypatch.setattr(report, "pareto_dp", functools.partial(pareto_dp, max_frontier_size=1))
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--lambda", "1.08,0.95", "--T", "8", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "merge-planner: error: frontier for interval" in err
    assert "(cap 1)" in err
    # no flag or config key sets the cap, so the message names the ways that exist
    assert "raise the cap" not in err
    assert "use a smaller d or T, or call pareto_dp(max_frontier_size=...) from Python" in err


_FRESH_CLI = """
import json, sys
from merge_planner import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"merge-planner {argv} failed")
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(*argvs: list[str]) -> list[str]:
    """The modules a fresh interpreter has loaded after running each CLI ``argv``.

    The test session has long since loaded SciPy and the acceptance suite
    (other test modules import them at collection), so only a fresh
    interpreter shows what a command loads.
    """
    src = str(Path(merge_planner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_plan_and_sweep_never_load_scipy(tmp_path):
    loaded = _modules_after(
        ["plan", "--T", "8", "--lambda", "1.05 0.7", "--out", str(tmp_path / "plan")],
        ["sweep", "--T", "8", "--lambda", "0.5 5", "--out", str(tmp_path / "sweep")],
    )
    assert (tmp_path / "plan" / "plan.txt").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert "merge_planner.verify" not in loaded


def test_gmm_approx_loads_scipy_at_its_first_fit(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[gmm]\nk_grid = 1\nn_fit = 256\nn_mc = 512\n")
    argv = ["gmm-approx", "--config", str(cfg), "--T", "8", "--seed", "5", "--out"]
    assert "scipy.linalg" in _modules_after(argv + [str(tmp_path / "fresh")])
    assert main(argv + [str(tmp_path / "here")]) == 0
    fresh = (tmp_path / "fresh" / "gmm_approx.csv").read_bytes()
    assert fresh == (tmp_path / "here" / "gmm_approx.csv").read_bytes()
