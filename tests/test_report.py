import configparser
import re
from pathlib import Path

import numpy as np
import pytest

from merge_planner import report as report_module
from merge_planner.gmm import GaussianMixture
from merge_planner.linear_op import DiagGaussian, shrinkage, surrogate_target
from merge_planner.pareto_dp import pareto_dp
from merge_planner.report import (
    ExperimentConfig,
    _canonical_plans,
    load_config,
    render_arc_diagram,
    run_ablation,
    run_gmm_approx,
    run_gmm_propagate,
    run_plan,
    run_sweep,
)
from merge_planner.schedule import read_schedule_csv
from merge_planner.strategy import (
    plan_progressive,
    plan_sequential_boot,
    plan_vanilla,
    parse_plan,
)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(env={})
        assert cfg.T == 32 and cfg.s_train == 6.4 and cfg.seed == 0

    def test_file_values(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[experiment]\nkind = sweep\nT = 16\ns = 3.2\nseed = 9\nout = res\n"
            "[lambda]\nvalues = 0.5 1.0 2.0\n"
            "[gmm]\ncircle_K = 4\nk_grid = 1 2\nn_mc = 5000\n"
        )
        cfg = load_config(path, env={})
        assert cfg.kind == "sweep"
        assert cfg.T == 16 and cfg.s_train == 3.2 and cfg.seed == 9
        assert cfg.lam_values == (0.5, 1.0, 2.0)
        assert cfg.circle_K == 4 and cfg.k_grid == (1, 2) and cfg.n_mc == 5000

    def test_grid_spec(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[lambda]\ngrid = linear 1.0 2.0 3\n")
        cfg = load_config(path, env={})
        np.testing.assert_allclose(cfg.sweep_lambdas(), [1.0, 1.5, 2.0])

    def test_env_seed_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nseed = 3\n")
        cfg = load_config(path, env={"MERGE_PLANNER_SEED": "77"})
        assert cfg.seed == 77

    def test_cli_override_beats_env(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[experiment]\nseed = 3\nT = 8\n")
        cfg = load_config(
            path, overrides={"seed": 5, "T": None}, env={"MERGE_PLANNER_SEED": "77"}
        )
        assert cfg.seed == 5
        assert cfg.T == 8  # None overrides are ignored

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[experiment]\nTT = 8\n", "unknown key 'tt' in section [experiment]"),
            ("[lamda]\nvalues = 0.5\n", "unknown section [lamda]"),
            ("[experiment]\nworkers = 2\n", "unknown key 'workers' in section [experiment]"),
            ("[gmm]\nk = 2\n", "unknown key 'k' in section [gmm]"),
            ("[DEFAULT]\nT = 8\n", "unknown section [DEFAULT]"),
            ("[experiment]\nschedule = file\n", "unknown key 'schedule' in section [experiment]"),
        ],
    )
    def test_unknown_section_or_key_rejected(self, tmp_path, text, where):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_config(path, env={})
        assert str(err.value) == f"{path}: {where}"

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "cfg.ini"
        path.write_text(readme.split("```ini\n")[1].split("```")[0])
        cfg = load_config(path, env={})
        assert cfg.kind == "sweep" and cfg.lambda_points == 50 and cfg.T_grid == (32, 64)

    def test_file_fields_are_paths(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[experiment]\nout = res\nschedule_file = s.csv\n"
            "[gmm]\nmixture_file = m.txt\n"
        )
        from_file = load_config(path, env={})
        from_overrides = load_config(
            overrides={"out_dir": "res", "schedule_file": "s.csv", "mixture_file": "m.txt"},
            env={},
        )
        for cfg in (from_file, from_overrides):
            assert isinstance(cfg.out_dir, Path) and cfg.out_dir == Path("res")
            assert isinstance(cfg.schedule_file, Path) and cfg.schedule_file == Path("s.csv")
            assert isinstance(cfg.mixture_file, Path) and cfg.mixture_file == Path("m.txt")

    def test_every_file_key_lands_in_its_field(self, tmp_path):
        text = (
            "[experiment]\nkind = sweep\nT = 16\ns = 3.2\nseed = 9\nout = res\n"
            "schedule_file = s.csv\n"
            "[lambda]\nvalues = 0.5 1.0 2.0\ngrid = linear 1.0 2.0 3\n"
            "[sweep]\nT_grid = 8 16\ns_grid = 1.6 3.2\n"
            "[gmm]\nmixture_file = m.txt\ncircle_K = 4\ncircle_radius = 2.5\n"
            "circle_std = 0.1\nk_grid = 1 2\nstart_t = 12\nsplit = 5\nn_fit = 512\n"
            "n_mc = 5000\nexpansion_cap = 64\n"
        )
        parser = configparser.ConfigParser()
        parser.read_string(text)
        # the file sets every key the loader accepts
        assert {name: set(parser[name]) for name in parser.sections()} == {
            name: set(keys) for name, keys in report_module._FILE_KEYS.items()
        }
        expected = {
            "kind": "sweep", "T": 16, "s_train": 3.2, "seed": 9, "out_dir": Path("res"),
            "schedule_file": Path("s.csv"),
            "lam_values": (0.5, 1.0, 2.0), "lambda_grid": "linear", "lambda_min": 1.0,
            "lambda_max": 2.0, "lambda_points": 3,
            "T_grid": (8, 16), "s_grid": (1.6, 3.2),
            "mixture_file": Path("m.txt"), "circle_K": 4, "circle_radius": 2.5,
            "circle_std": 0.1, "k_grid": (1, 2), "start_t": 12, "split": 5, "n_fit": 512,
            "n_mc": 5000, "expansion_cap": 64,
        }
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        cfg = load_config(path, env={})
        default = ExperimentConfig()
        for name, value in expected.items():
            assert getattr(default, name) != value, name
            assert getattr(cfg, name) == value, name


    def test_default_sweep_grid(self):
        cfg = ExperimentConfig(kind="sweep")
        grid = cfg.sweep_lambdas()
        assert len(grid) == 50
        assert grid[0] == pytest.approx(0.2) and grid[-1] == pytest.approx(5.0)


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    cfg = ExperimentConfig(
        kind="sweep",
        T=8,
        s_train=6.4,
        lam_values=(0.5, 1.0, 2.0, 5.0),
        out_dir=tmp_path_factory.mktemp("sweep"),
    )
    return run_sweep(cfg)


class TestSweep:

    def test_header_exact(self, sweep_result):
        first = sweep_result.path.read_text().splitlines()[0]
        assert first == (
            "lambda,vanilla,progressive,boot,consistency,dp,"
            "gap_vanilla,gap_progressive,gap_boot,gap_consistency,flags"
        )

    def test_gap_nonnegativity(self, sweep_result):
        for record in sweep_result.records:
            for gap in record.gaps().values():
                if gap is not None:
                    assert gap >= -1e-12

    def test_boot_and_vanilla_phases(self, sweep_result):
        by_lam = {r.lam: r for r in sweep_result.records}
        assert by_lam[0.5].gaps()["boot"] <= 1e-12
        assert by_lam[5.0].gaps()["vanilla"] <= 1e-12

    def test_progressive_skipped_when_ragged(self, tmp_path):
        cfg = ExperimentConfig(
            kind="sweep", T=6, lam_values=(1.0,), out_dir=tmp_path
        )
        res = run_sweep(cfg)
        assert res.records[0].progressive is None
        assert res.records[0].flags == "progressive_skipped"
        row = res.path.read_text().splitlines()[1]
        assert row.endswith("progressive_skipped")
        assert ",," in row  # flagged null cells

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = ExperimentConfig(
            kind="sweep", T=8, lam_values=(0.5, 2.0), out_dir=tmp_path / "a"
        )
        cfg_b = ExperimentConfig(
            kind="sweep", T=8, lam_values=(0.5, 2.0), out_dir=tmp_path / "b"
        )
        assert run_sweep(cfg_a).path.read_bytes() == run_sweep(cfg_b).path.read_bytes()

    def test_canonical_plans_cached_read_only(self):
        plans = _canonical_plans(8)
        assert plans is _canonical_plans(8)
        assert plans["progressive"] == plan_progressive(8)
        assert _canonical_plans(6)["progressive"] is None
        with pytest.raises(TypeError):
            plans["vanilla"] = plan_sequential_boot(8)

    @pytest.mark.parametrize("run", [run_sweep, run_ablation])
    def test_schedule_file_rejected(self, tmp_path, run):
        cfg = ExperimentConfig(kind="sweep", T=8, schedule_file="s.csv", out_dir=tmp_path)
        message = "schedule_file is set but sweeps use the built-in cosine schedule"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(cfg)
        assert not any(tmp_path.iterdir())

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = ExperimentConfig(kind="sweep", T=8, lambda_points=0, out_dir=tmp_path)
        res = run_sweep(cfg)
        assert res.records == ()
        assert len(res.path.read_text().splitlines()) == 1


class TestAblation:
    def test_grid_over_T_and_s(self, tmp_path):
        cfg = ExperimentConfig(
            kind="sweep",
            lam_values=(0.5, 5.0),
            T_grid=(4, 8),
            s_grid=(1.6, 6.4),
            out_dir=tmp_path,
        )
        result = run_ablation(cfg)
        assert set(result.sweeps) == {(4, 1.6), (4, 6.4), (8, 1.6), (8, 6.4)}
        assert (tmp_path / "sweep_T8_s6.4.csv").exists()
        # each grid point matches a standalone sweep at that (T, s)
        single = run_sweep(
            ExperimentConfig(
                kind="sweep", T=8, s_train=6.4, lam_values=(0.5, 5.0),
                out_dir=tmp_path / "single",
            )
        )
        assert (
            result.sweeps[(8, 6.4)].path.read_text().splitlines()[1:]
            == single.path.read_text().splitlines()[1:]
        )

    def test_grid_defaults_to_configured_point(self, tmp_path):
        cfg = ExperimentConfig(
            kind="sweep", T=4, s_train=3.2, lam_values=(1.0,), out_dir=tmp_path
        )
        result = run_ablation(cfg)
        assert set(result.sweeps) == {(4, 3.2)}

    @pytest.mark.parametrize("grid", ["T_grid", "s_grid"])
    def test_empty_grid_rejected(self, tmp_path, grid):
        cfg = ExperimentConfig(kind="sweep", lam_values=(1.0,), out_dir=tmp_path, **{grid: ()})
        with pytest.raises(ValueError, match=f"^{grid} must be non-empty$"):
            run_ablation(cfg)
        assert not any(tmp_path.iterdir())

    def test_config_file_keys(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[sweep]\nT_grid = 8 16\ns_grid = 1.6\n")
        cfg = load_config(path, env={})
        assert cfg.T_grid == (8, 16)
        assert cfg.s_grid == (1.6,)


class TestArcDiagram:
    def test_single_step_has_no_arcs(self):
        svg = render_arc_diagram(plan_vanilla(1), 1)
        assert "<path" not in svg
        assert svg.count("<line") == 2  # baseline plus one tick

    def test_vanilla_has_one_arc(self):
        svg = render_arc_diagram(plan_vanilla(32), 32)
        assert svg.count("<path") == 1

    def test_boot_t4_arcs_end_at_T(self):
        svg = render_arc_diagram(plan_sequential_boot(4), 4)
        arcs = [line for line in svg.splitlines() if "<path" in line]
        assert len(arcs) == 3
        x_T = "90.00"  # margin 30 + 3 * 20
        assert all(f"{x_T} " in arc or arc.rstrip().endswith(f'{x_T}"') or f"1 {x_T}" in arc for arc in arcs)

    def test_depth_maps_to_lightness(self):
        svg = render_arc_diagram(plan_sequential_boot(4), 4)
        lights = [
            float(line.split("hsl(215,70%,")[1].split("%")[0])
            for line in svg.splitlines()
            if "<path" in line
        ]
        # drawn deepest first: lightness strictly decreasing toward the root
        assert lights == sorted(lights, reverse=True)
        assert max(lights) > min(lights)

    def test_deterministic_bytes(self):
        plan = parse_plan("((1:2 oneshot)((3:3)(4:4)))")
        assert render_arc_diagram(plan, 4) == render_arc_diagram(plan, 4)

    def test_wrong_span_rejected(self):
        with pytest.raises(ValueError):
            render_arc_diagram(plan_vanilla(4), 5)


class TestRunPlan:
    def test_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            kind="plan", T=8, s_train=6.4, lam_values=(0.5,), out_dir=tmp_path
        )
        result = run_plan(cfg)
        assert (tmp_path / "plan.txt").exists()
        assert (tmp_path / "plan.svg").exists()
        frontier = (tmp_path / "frontier.csv").read_text().splitlines()
        assert frontier[0] == "t1,t2,frontier_size"
        assert len(frontier) == 1 + 8 * 9 // 2
        # scalar low variance: the DP optimum ties the boot strategy exactly
        assert result.strategy_objectives["boot"] == pytest.approx(
            result.objective, abs=1e-12
        )
        assert parse_plan((tmp_path / "plan.txt").read_text().strip()) == result.plan
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "strategy,objective,gap"
        boot_row = [r for r in summary if r.startswith("boot,")][0]
        assert float(boot_row.split(",")[2]) <= 1e-12


    def test_invalid_schedule_file_rejected(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,alpha\n0,1.0\n1,0.5\n2,0.7\n3,0.0\n")
        cfg = ExperimentConfig(kind="plan", T=3, schedule_file=path, out_dir=tmp_path)
        with pytest.raises(ValueError, match="alpha monotonicity violation at index 2"):
            run_plan(cfg)
        assert not (tmp_path / "plan.txt").exists()

    def test_schedule_file_alone_sets_the_schedule(self, tmp_path):
        path = tmp_path / "sched.csv"
        path.write_text("t,alpha\n0,1.0\n1,0.8\n2,0.3\n3,0.0\n")
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[experiment]\nschedule_file = {path}\n")
        cfg = load_config(ini, overrides={"out_dir": tmp_path / "out"}, env={})
        assert cfg.T == 32  # the file's three steps replace the default cosine 32
        result = run_plan(cfg)
        sched = read_schedule_csv(path)
        data = DiagGaussian([1.08])
        dp = pareto_dp(sched, data, shrinkage(sched, data, 6.4), surrogate_target(sched, data))
        assert result.plan == dp.plan and result.plan.interval == (1, 3)
        assert result.objective == dp.objective


class TestGmmRunners:
    @pytest.mark.parametrize("run", [run_gmm_approx, run_gmm_propagate])
    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"n_fit": 0}, "n_fit must be at least 1, got 0"),
            ({"n_fit": -5}, "n_fit must be at least 1, got -5"),
            ({"n_mc": 1}, "n_mc must be at least 2 for a standard error, got 1"),
            ({"n_mc": 0}, "n_mc must be at least 2 for a standard error, got 0"),
        ],
    )
    def test_too_few_samples_rejected_up_front(self, tmp_path, monkeypatch, run, counts, message):
        def no_mixture(cfg):
            raise AssertionError("the run started")

        monkeypatch.setattr(report_module, "resolve_mixture", no_mixture)
        cfg = ExperimentConfig(T=10, out_dir=tmp_path, **counts)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(cfg)

    @pytest.mark.parametrize("run", [run_gmm_approx, run_gmm_propagate])
    @pytest.mark.parametrize("n_fit, d", [(1, 2), (2, 2), (3, 3)])
    def test_too_few_samples_for_the_affine_fit_rejected(self, tmp_path, monkeypatch, run, n_fit, d):
        # at n_fit = 1 the k = 1 bound read 2.4e-10 against a Monte-Carlo loss of 1.77
        gmm = GaussianMixture(pi=[0.5, 0.5], mu=np.eye(2, d), cov=np.stack([np.eye(d)] * 2))
        monkeypatch.setattr(report_module, "resolve_mixture", lambda cfg: gmm)
        cfg = ExperimentConfig(T=10, out_dir=tmp_path, n_fit=n_fit, n_mc=2)
        message = f"n_fit must be at least d + 1 = {d + 1} for the affine fit, got {n_fit}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(cfg)
        assert not any(tmp_path.iterdir())

    def test_empty_horizon_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^k_grid must be non-empty$"):
            run_gmm_approx(ExperimentConfig(k_grid=(), out_dir=tmp_path))
        assert not (tmp_path / "gmm_approx.csv").exists()

    def test_approx_rows_and_monotonicity(self, tmp_path):
        cfg = ExperimentConfig(
            kind="gmm-approx",
            T=32,
            seed=1,
            out_dir=tmp_path,
            k_grid=(1, 2),
            n_fit=2048,
            n_mc=4000,
        )
        result = run_gmm_approx(cfg)
        lines = result.path.read_text().splitlines()
        assert lines[0] == "k,bound,mc_loss,stderr,seed,flags"
        rows = {r.k: r for r in result.rows}
        assert rows[1].bound <= 1e-10
        assert rows[2].bound > 0.0
        assert rows[1].bound <= rows[2].bound
        for r in result.rows:
            assert r.mc_loss <= r.bound + 3.0 * r.stderr

    def test_approx_cap_flags_row(self, tmp_path):
        cfg = ExperimentConfig(
            kind="gmm-approx",
            T=32,
            out_dir=tmp_path,
            k_grid=(1, 4),
            expansion_cap=512,
            n_fit=512,
            n_mc=500,
        )
        result = run_gmm_approx(cfg)
        flagged = [r for r in result.rows if r.k == 4][0]
        assert flagged.flags == "cap_exceeded"
        assert flagged.bound is None
        line = [l for l in result.path.read_text().splitlines() if l.startswith("4,")][0]
        assert line == "4,,,,0,cap_exceeded"

    def test_propagate_small(self, tmp_path):
        cfg = ExperimentConfig(
            kind="gmm-propagate",
            T=4,
            seed=2,
            out_dir=tmp_path,
            split=2,
            n_fit=1024,
            n_mc=2000,
        )
        result = run_gmm_propagate(cfg)
        assert result.audit.holds
        lines = result.path.read_text().splitlines()
        assert lines[0].startswith("final,final_stderr,merge,")
        assert lines[1].split(",")[-2] == "true"
