"""Byte-for-byte comparison of ``run_plan`` and sweep outputs with frozen fixtures.

The plan files under ``tests/golden/<case>/`` were written by ``run_plan``
(default ``s_train`` 6.4, cosine schedule) at the commit before the
batch-skyline rewrite of the Pareto DP, so any change to the DP that alters
the frontier order, the chosen plan or a single output byte fails here.  The
three-coordinate cases exercise the d = 3 skyline path; the T = 12 one,
frozen at the commit before that path got its own staircase filter, prunes
candidate sets of up to 16 633 rows (more than one chunk) into frontiers of
up to 6 528 items.  The four-coordinate case, frozen at the commit before the
sort-filter and staircase paths gave way to one divide-and-conquer skyline,
grows frontiers of up to 3 174 items, so that recursion splits several times.

The sweep files were written by ``run_sweep`` and ``run_ablation`` at the
commit before the sweep became one batched pass over the lambda grid, when
every grid point still ran the general Pareto DP on its own.  The explicit
T = 6 grid covers the ``progressive_skipped`` rows.

The mixture files were written by ``run_gmm_approx`` (k = 1..3 on the
default circle mixture) and ``run_gmm_propagate`` (T = 10) at the commit
before each fitting set was gated once.  A one-ulp change in posterior
gating can flip a k-means partition, so these are compared byte for byte as
well.  The two few-mode cases (``circle_K`` 3 and 4) were frozen at the
commit before the fitting set became component-major: with so few
components, swapping the layout of the gating and mixing matmuls was seen
to round differently under OpenBLAS, which the eight-mode cases did not
show.
"""

from pathlib import Path

import pytest

from merge_planner.report import (
    ExperimentConfig,
    run_ablation,
    run_gmm_approx,
    run_gmm_propagate,
    run_plan,
    run_sweep,
)

GOLDEN = Path(__file__).parent / "golden"
FILES = ("plan.txt", "frontier.csv", "summary.csv", "plan.svg")
CASES = {
    "lam_1.08_T8": ((1.08,), 8),
    "lam_1.08_T32": ((1.08,), 32),
    "lam_1.08_0.95_T8": ((1.08, 0.95), 8),
    "lam_1.08_0.95_T16": ((1.08, 0.95), 16),
    "lam_1.08_0.95_3_T8": ((1.08, 0.95, 3.0), 8),
    "lam_1.08_0.95_1.3_T12": ((1.08, 0.95, 1.3), 12),
    "lam_2_0.5_1.1_0.9_T11": ((2.0, 0.5, 1.1, 0.9), 11),
}
# the default grid is 50 log-spaced lambdas in [0.2, 5] at T = 32, s = 6.4
SWEEP_CASES = {
    "sweep_log50_T32": (run_sweep, {}),
    "sweep_explicit_T6": (run_sweep, {"T": 6, "lam_values": (0.2, 1.0, 1.08, 5.0)}),
    "ablation_log50_T8_16": (run_ablation, {"T_grid": (8, 16), "s_grid": (0.0, 6.4)}),
}
GMM_CASES = {
    "gmm_approx_k123_seed0": (run_gmm_approx, {"seed": 0, "n_fit": 512, "n_mc": 2000}),
    "gmm_approx_k123_seed5": (run_gmm_approx, {"seed": 5, "n_fit": 512, "n_mc": 2000}),
    "gmm_propagate_T10_seed0": (run_gmm_propagate, {"T": 10, "seed": 0, "n_fit": 1024, "n_mc": 3000}),
    "gmm_propagate_T10_seed5": (run_gmm_propagate, {"T": 10, "seed": 5, "n_fit": 1024, "n_mc": 3000}),
    "gmm_approx_K3_seed0": (run_gmm_approx, {"seed": 0, "n_fit": 512, "n_mc": 2000, "circle_K": 3}),
    "gmm_propagate_K4_T10_seed0": (
        run_gmm_propagate,
        {"T": 10, "seed": 0, "n_fit": 1024, "n_mc": 3000, "circle_K": 4},
    ),
}


def test_every_fixture_directory_is_checked():
    kinds = (set(CASES), set(SWEEP_CASES), set(GMM_CASES))
    for directory in (p.name for p in GOLDEN.iterdir() if p.is_dir()):
        assert sum(directory in kind for kind in kinds) == 1, directory
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(
        [*CASES, *SWEEP_CASES, *GMM_CASES]
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_plan_matches_golden_bytes(case, tmp_path):
    lam, T = CASES[case]
    run_plan(ExperimentConfig(kind="plan", T=T, lam_values=lam, out_dir=tmp_path))
    for name in FILES:
        expected = (GOLDEN / case / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{case}/{name} differs"


def _assert_same_files(case, tmp_path):
    names = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        expected = (GOLDEN / case / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{case}/{name} differs"


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_golden_bytes(case, tmp_path):
    run, fields = SWEEP_CASES[case]
    run(ExperimentConfig(kind="sweep", out_dir=tmp_path, **fields))
    _assert_same_files(case, tmp_path)


@pytest.mark.parametrize("case", sorted(GMM_CASES))
def test_gmm_matches_golden_bytes(case, tmp_path):
    run, fields = GMM_CASES[case]
    run(ExperimentConfig(out_dir=tmp_path, **fields))
    _assert_same_files(case, tmp_path)
