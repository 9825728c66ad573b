import functools

import pytest

from merge_planner import report
from merge_planner.cli import main
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
