"""The four workloads: seeded item streams, the report.run_* call an item makes, and its checks.

An item is one call of a public ``merge_planner.report.run_*`` function on a
config generated from the workload seed.  Streams are endless and never
repeat an input.  Inputs are drawn in cycles of Latin-hypercube samples, so
every cycle covers the same strata and the work per run depends little on
the seed.

Every item's outputs are checked by invariants that hold for any seed.  For
the default seed the outputs of the first items are also compared with
``golden.json``, frozen from the code the benchmark was defined on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from calibration import KERNELS

from merge_planner import report
from merge_planner.linear_op import (
    DiagGaussian,
    critical_variance,
    shrinkage,
    surrogate_target,
    w2_objective,
)
from merge_planner.report import ExperimentConfig
from merge_planner.schedule import make_cosine_schedule
from merge_planner.strategy import (
    evaluate_plan,
    parse_plan,
    plan_progressive,
    plan_sequential_boot,
    plan_sequential_consistency,
    plan_vanilla,
)

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")
GMM_RTOL = 1e-6  # relative tolerance on gmm golden values (Monte-Carlo sums may reorder across BLAS builds)
GMM_ATOL = 1e-12  # absolute floor for golden values that are zero up to rounding
ROUNDING = 1e-10  # losses below this are rounding noise: the k=1 student is exact


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # name of the report.run_* function each item calls
    outputs: tuple[str, ...]  # files an item writes into its output directory
    items: Callable[[np.random.Generator], Iterator[dict]]  # config fields per item
    check: Callable[[ExperimentConfig, object, Path], list[str]]
    exact_golden: bool  # golden outputs compared byte for byte, else numerically
    trace_items: int  # fixed item count of one traced pass
    kernels: tuple[str, ...] = tuple(KERNELS)  # calibration kernels whose slowdown tracks this workload's

    def configs(self, seed: int, out_dir: Path) -> Iterator[ExperimentConfig]:
        entropy = (seed, zlib.crc32(self.name.encode()))
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        for fields in self.items(rng):
            yield ExperimentConfig(out_dir=out_dir, **fields)

    def call(self, cfg: ExperimentConfig):
        # looked up at call time, so an installed tracer sees the call
        return getattr(report, self.entry)(cfg)


def _lhs(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``n`` equal strata of [lo, hi], in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return [float(v) for v in lo + (hi - lo) * u]


def _grid(rng: np.random.Generator, axes: list[tuple[float, float, int]]) -> list[tuple[float, ...]]:
    """One uniform draw from every cell of a grid over the axes ``(lo, hi, strata)``, shuffled."""
    cells = list(itertools.product(*(range(n) for _, _, n in axes)))
    points = [
        tuple(float(lo + (hi - lo) * (k + rng.random()) / n) for (lo, hi, n), k in zip(axes, cell))
        for cell in cells
    ]
    return [points[i] for i in rng.permutation(len(points))]


def _seed_field(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# --------------------------------------------------------------------------
# dp-vector: run_plan on conflicting-coordinate lambda vectors

def _dp_vector_items(rng):
    # a full grid per cycle, so every run holds the same share of the costly corner
    # (lambda_1 nearest 1 from above, lambda_2 nearest 1 from below)
    while True:
        d2 = _grid(rng, [(1.01, 1.09, 4), (0.5, 0.9, 4)])
        d3 = _grid(rng, [(1.01, 1.09, 2), (0.5, 0.9, 2), (2.5, 4.0, 4)])
        for a, b in zip(d2, d3):
            yield {"kind": "plan", "T": 12, "lam_values": a}
            yield {"kind": "plan", "T": 10, "lam_values": b}


def _check_plan(cfg: ExperimentConfig, result, out: Path) -> list[str]:
    sched = make_cosine_schedule(cfg.T)
    data = DiagGaussian(np.asarray(cfg.lam_values))
    shrink = shrinkage(sched, data, cfg.s_train)
    surr = surrogate_target(sched, data)
    problems = []
    plan = parse_plan((out / "plan.txt").read_text(encoding="utf-8").strip())
    replay = w2_objective(evaluate_plan(plan, sched, data, shrink), surr)
    if replay != result.objective:
        problems.append(f"plan.txt evaluates to {replay!r}, DP reported {result.objective!r}")
    T = cfg.T
    canonical = {
        "vanilla": plan_vanilla(T),
        "boot": plan_sequential_boot(T),
        "consistency": plan_sequential_consistency(T),
    }
    if T & (T - 1) == 0:
        canonical["progressive"] = plan_progressive(T)
    for name, plan in canonical.items():
        obj = w2_objective(evaluate_plan(plan, sched, data, shrink), surr)
        if result.objective > obj:
            problems.append(f"DP objective {result.objective!r} above {name} {obj!r}")
    return problems


# --------------------------------------------------------------------------
# sweep-scalar: run_sweep with d=1 over lambda grids spanning [0.2, 5]

_SWEEP_T = 32
_SWEEP_POINTS = 2


def _sweep_items(rng):
    lo, hi = math.log(0.2), math.log(5.0)
    while True:
        lams = tuple(math.exp(v) for v in _lhs(rng, _SWEEP_POINTS, lo, hi))
        yield {"kind": "sweep", "T": _SWEEP_T, "lam_values": lams}


def _check_sweep(cfg: ExperimentConfig, result, out: Path) -> list[str]:
    lam_crit = critical_variance(make_cosine_schedule(cfg.T))[0]
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    problems = []
    if len(rows) != len(cfg.lam_values):
        problems.append(f"sweep.csv has {len(rows)} rows for {len(cfg.lam_values)} lambdas")
    for row in rows:
        lam = float(row["lambda"])
        gaps = {k: float(v) for k, v in row.items() if k.startswith("gap_") and v}
        if len(gaps) != 4:
            problems.append(f"lambda {lam!r}: expected four gaps, got {sorted(gaps)}")
        negative = {k: v for k, v in gaps.items() if v < 0.0}
        if negative:
            problems.append(f"lambda {lam!r}: negative gaps {negative}")
        if lam <= 1.0 and gaps.get("gap_boot") != 0.0:
            problems.append(f"lambda {lam!r} <= 1 but gap_boot = {gaps.get('gap_boot')!r}")
        if lam > lam_crit and gaps.get("gap_vanilla") != 0.0:
            problems.append(
                f"lambda {lam!r} > {lam_crit!r} but gap_vanilla = {gaps.get('gap_vanilla')!r}"
            )
    return problems


# --------------------------------------------------------------------------
# gmm-approx: run_gmm_approx with k = 1..3 on the circle mixture

def _gmm_approx_items(rng):
    while True:
        yield {
            "kind": "gmm-approx",
            "seed": _seed_field(rng),
            "k_grid": (1, 2, 3),
            "n_fit": 1024,
            "n_mc": 10_000,
        }


def _check_gmm_approx(cfg: ExperimentConfig, result, out: Path) -> list[str]:
    rows = result.rows
    problems = []
    if [r.k for r in rows] != list(cfg.k_grid) or any(r.bound is None for r in rows):
        return [f"expected bounds for k = {cfg.k_grid}, got {rows}"]
    if rows[0].bound > ROUNDING:
        problems.append(f"k=1 bound {rows[0].bound!r} above {ROUNDING}")
    for prev, nxt in zip(rows, rows[1:]):
        if nxt.bound < prev.bound:
            problems.append(f"bound falls from k={prev.k} to k={nxt.k}")
    for r in rows:
        if r.mc_loss > r.bound + 3.0 * r.stderr + ROUNDING:
            problems.append(f"k={r.k}: MC loss {r.mc_loss!r} above bound {r.bound!r} + 3 stderr")
    return problems


# --------------------------------------------------------------------------
# gmm-propagate: run_gmm_propagate, the two-stage audit

def _gmm_propagate_items(rng):
    while True:
        yield {"kind": "gmm-propagate", "T": 10, "seed": _seed_field(rng), "n_fit": 1024, "n_mc": 3000}


def _check_gmm_propagate(cfg: ExperimentConfig, result, out: Path) -> list[str]:
    audit = result.audit
    if not audit.holds:
        return [f"audit fails: final {audit.final.mean!r} > rhs {audit.rhs!r} + 3 stderr"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dp-vector", "run_plan", ("plan.txt", "plan.svg", "frontier.csv", "summary.csv"),
                 _dp_vector_items, _check_plan, True, 32),
        # d=1: per-split overhead of one-element NumPy calls and Python, nothing larger
        Workload("sweep-scalar", "run_sweep", ("sweep.csv",),
                 _sweep_items, _check_sweep, True, 24, ("small_ops", "python_dict")),
        Workload("gmm-approx", "run_gmm_approx", ("gmm_approx.csv",),
                 _gmm_approx_items, _check_gmm_approx, False, 24),
        Workload("gmm-propagate", "run_gmm_propagate", ("gmm_propagate.csv",),
                 _gmm_propagate_items, _check_gmm_propagate, False, 16),
    )
}


# --------------------------------------------------------------------------
# output records and golden comparison

def output_record(workload: Workload, out: Path) -> dict[str, str]:
    """What the golden file keeps of an item: file digests, or the CSV text for gmm values."""
    record = {}
    for name in workload.outputs:
        data = (out / name).read_bytes()
        record[name] = hashlib.sha256(data).hexdigest() if workload.exact_golden else data.decode()
    return record


def output_digest(workload: Workload, out: Path) -> str:
    """Digest of every output byte of an item (traced and untraced runs must agree)."""
    h = hashlib.sha256()
    for name in workload.outputs:
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def load_golden() -> dict[str, list[dict[str, str]]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return abs(x - y) <= GMM_RTOL * abs(y) + GMM_ATOL


def golden_problems(workload: Workload, record: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = []
    for name, want in expected.items():
        got = record.get(name)
        if workload.exact_golden:
            if got != want:
                problems.append(f"{name} differs from the frozen digest")
            continue
        got_cells = [line.split(",") for line in got.splitlines()]
        want_cells = [line.split(",") for line in want.splitlines()]
        same_shape = [len(r) for r in got_cells] == [len(r) for r in want_cells]
        if not same_shape or not all(
            _close(g, w) for gr, wr in zip(got_cells, want_cells) for g, w in zip(gr, wr)
        ):
            problems.append(f"{name} values differ from the frozen ones beyond rtol {GMM_RTOL}")
    return problems
