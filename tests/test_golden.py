"""Byte-for-byte comparison of ``run_plan`` outputs with frozen fixtures.

The files under ``tests/golden/<case>/`` were written by ``run_plan`` (default
``s_train`` 6.4, cosine schedule) at the commit before the batch-skyline
rewrite of the Pareto DP, so any change to the DP that alters the frontier
order, the chosen plan or a single output byte fails here.  The
three-coordinate case exercises the d >= 3 skyline path.
"""

from pathlib import Path

import pytest

from merge_planner.report import ExperimentConfig, run_plan

GOLDEN = Path(__file__).parent / "golden"
FILES = ("plan.txt", "frontier.csv", "summary.csv", "plan.svg")
CASES = {
    "lam_1.08_T8": ((1.08,), 8),
    "lam_1.08_T32": ((1.08,), 32),
    "lam_1.08_0.95_T8": ((1.08, 0.95), 8),
    "lam_1.08_0.95_T16": ((1.08, 0.95), 16),
    "lam_1.08_0.95_3_T8": ((1.08, 0.95, 3.0), 8),
}


def test_every_fixture_directory_is_checked():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_plan_matches_golden_bytes(case, tmp_path):
    lam, T = CASES[case]
    run_plan(ExperimentConfig(kind="plan", T=T, lam_values=lam, out_dir=tmp_path))
    for name in FILES:
        expected = (GOLDEN / case / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{case}/{name} differs"
