"""Experiment harness: configuration, sweeps, CSV emission and SVG arc diagrams.

All result files are plain CSV with fixed headers and floats serialized at
17 significant digits, so byte-identical reruns are guaranteed for a given
config and seed and plots can be regenerated by any external tool.  Arc
diagrams are rendered as standalone SVG with no plotting dependency.
"""

from __future__ import annotations

import configparser
import functools
import os
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .gmm import (
    GaussianMixture,
    NoisySampler,
    PropagationAudit,
    _compress,
    compose_expand,
    distill_chain,
    error_propagation_audit,
    make_circle_mixture,
    mc_distillation_loss,
    read_mixture,
    single_step_moe,
    DEFAULT_EXPANSION_CAP,
)
from .linear_op import (
    DiagGaussian,
    shrinkage,
    single_step_matrix,
    surrogate_target,
)
from .pareto_dp import PreferenceVector, pareto_dp, scalar_dp
from .schedule import (
    NoiseSchedule,
    make_cosine_schedule,
    read_schedule_csv,
    validate_schedule,
)
from .strategy import (
    MergePlan,
    format_plan,
    internal_nodes,
    plan_entries,
    plan_progressive,
    plan_sequential_boot,
    plan_sequential_consistency,
    plan_vanilla,
)

__all__ = [
    "ExperimentConfig",
    "SweepRecord",
    "load_config",
    "resolve_schedule",
    "resolve_mixture",
    "run_plan",
    "run_sweep",
    "run_ablation",
    "run_gmm_approx",
    "run_gmm_propagate",
    "render_arc_diagram",
    "SEED_ENV_VAR",
]

SEED_ENV_VAR = "MERGE_PLANNER_SEED"

_SWEEP_HEADER = (
    "lambda,vanilla,progressive,boot,consistency,dp,"
    "gap_vanilla,gap_progressive,gap_boot,gap_consistency,flags"
)
_GMM_APPROX_HEADER = "k,bound,mc_loss,stderr,seed,flags"
_PROPAGATE_HEADER = (
    "final,final_stderr,merge,merge_stderr,shift,shift_stderr,"
    "stage1,stage1_stderr,lipschitz,rhs,combined_stderr,holds,seed"
)
_FRONTIER_HEADER = "t1,t2,frontier_size"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; CLI flags override file keys.

    ``lam_values`` drives ``plan`` (a vector) and explicit sweep grids;
    otherwise sweeps use ``lambda_points`` log- or linearly spaced values
    between ``lambda_min`` and ``lambda_max``.  No runner reads ``kind``:
    the CLI sets it from the subcommand.
    """

    kind: str = "plan"
    T: int = 32
    s_train: float = 6.4
    seed: int = 0
    out_dir: Path = Path("results")
    schedule_file: Path | None = None
    lam_values: tuple[float, ...] | None = None
    lambda_grid: str = "log"
    lambda_min: float = 0.2
    lambda_max: float = 5.0
    lambda_points: int = 50
    T_grid: tuple[int, ...] | None = None
    s_grid: tuple[float, ...] | None = None
    mixture_file: Path | None = None
    circle_K: int = 8
    circle_radius: float = 5.0
    circle_std: float = 0.3
    k_grid: tuple[int, ...] = (1, 2, 3)
    start_t: int | None = None
    split: int | None = None
    n_fit: int = 8192
    n_mc: int = 100_000
    expansion_cap: int = DEFAULT_EXPANSION_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.schedule_file is not None:
            object.__setattr__(self, "schedule_file", Path(self.schedule_file))
        if self.mixture_file is not None:
            object.__setattr__(self, "mixture_file", Path(self.mixture_file))

    def sweep_lambdas(self) -> np.ndarray:
        if self.lam_values is not None:
            return np.sort(np.asarray(self.lam_values, dtype=np.float64))
        if self.lambda_grid == "log":
            return np.geomspace(self.lambda_min, self.lambda_max, self.lambda_points)
        if self.lambda_grid == "linear":
            return np.linspace(self.lambda_min, self.lambda_max, self.lambda_points)
        raise ValueError(f"unknown lambda grid kind {self.lambda_grid!r}")


def load_config(
    path: str | Path | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Build a config from (in increasing precedence) defaults, file, env seed, overrides."""
    cfg = ExperimentConfig()
    if path is not None:
        cfg = _apply_file(cfg, Path(path))
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        cfg = replace(cfg, seed=int(env[SEED_ENV_VAR]))
    if overrides:
        clean = {k: v for k, v in overrides.items() if v is not None}
        cfg = replace(cfg, **clean)
    return cfg


def _words(cast):
    return lambda text: tuple(cast(v) for v in text.split())


def _lambda_grid(text: str) -> tuple[str, float, float, int]:
    kind, lo, hi, pts = text.split()
    return kind, float(lo), float(hi), int(pts)


# every key a config file may set, per section (configparser lowercases
# keys): the field it sets, or a tuple of fields, and how its text is read
_FILE_KEYS = {
    "experiment": {
        "kind": ("kind", str),
        "t": ("T", int),
        "s": ("s_train", float),
        "seed": ("seed", int),
        "out": ("out_dir", str),
        "schedule_file": ("schedule_file", str),
    },
    "lambda": {
        "values": ("lam_values", _words(float)),
        "grid": (("lambda_grid", "lambda_min", "lambda_max", "lambda_points"), _lambda_grid),
    },
    "sweep": {"t_grid": ("T_grid", _words(int)), "s_grid": ("s_grid", _words(float))},
    "gmm": {
        "mixture_file": ("mixture_file", str),
        "circle_k": ("circle_K", int),
        "circle_radius": ("circle_radius", float),
        "circle_std": ("circle_std", float),
        "k_grid": ("k_grid", _words(int)),
        "start_t": ("start_t", int),
        "split": ("split", int),
        "n_fit": ("n_fit", int),
        "n_mc": ("n_mc", int),
        "expansion_cap": ("expansion_cap", int),
    },
}


def _apply_file(cfg: ExperimentConfig, path: Path) -> ExperimentConfig:
    """``cfg`` with every non-blank key of the config file at ``path`` applied.

    Every section and key is checked against ``_FILE_KEYS`` before any value
    is read.
    """
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if parser.defaults():
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _FILE_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _FILE_KEYS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
    changes: dict = {}
    for section in parser.sections():
        for key, text in parser[section].items():
            if not text.strip():
                continue
            field_name, read = _FILE_KEYS[section][key]
            value = read(text.strip())
            if isinstance(field_name, tuple):
                changes.update(zip(field_name, value))
            else:
                changes[field_name] = value
    return replace(cfg, **changes)


def resolve_schedule(cfg: ExperimentConfig) -> NoiseSchedule:
    """Cosine, or the ``schedule_file`` schedule, which must pass :func:`validate_schedule`."""
    if cfg.schedule_file is None:
        return make_cosine_schedule(cfg.T)
    sched = read_schedule_csv(cfg.schedule_file)
    report = validate_schedule(sched)
    if not report.ok:
        raise ValueError(f"invalid schedule in {cfg.schedule_file}:\n{report}")
    return sched


def resolve_mixture(cfg: ExperimentConfig) -> GaussianMixture:
    if cfg.mixture_file is not None:
        return read_mixture(cfg.mixture_file)
    return make_circle_mixture(cfg.circle_K, cfg.circle_radius, cfg.circle_std)


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# plan


@dataclass(frozen=True)
class PlanResult:
    plan: MergePlan
    objective: float
    strategy_objectives: dict[str, float | None]
    paths: tuple[Path, ...]


def run_plan(cfg: ExperimentConfig) -> PlanResult:
    """Run the DP for one lambda vector; write the plan, its diagram and diagnostics."""
    lam = cfg.lam_values if cfg.lam_values is not None else (1.08,)
    sched = resolve_schedule(cfg)
    data = DiagGaussian(np.asarray(lam))
    shrink = shrinkage(sched, data, cfg.s_train)
    surr = surrogate_target(sched, data)
    result = pareto_dp(sched, data, shrink, surr)

    objectives = _strategy_objectives(sched, data, shrink, surr)
    objectives["dp"] = result.objective

    out = cfg.out_dir
    plan_path = _write(out / "plan.txt", format_plan(result.plan) + "\n")
    svg_path = _write(out / "plan.svg", render_arc_diagram(result.plan, sched.T))
    frontier_lines = [_FRONTIER_HEADER]
    for (t1, t2), size in sorted(result.frontier_sizes.items()):
        frontier_lines.append(f"{t1},{t2},{size}")
    frontier_path = _write(out / "frontier.csv", "\n".join(frontier_lines) + "\n")
    summary_lines = ["strategy,objective,gap"]
    for name in ("vanilla", "progressive", "boot", "consistency", "dp"):
        obj = objectives[name]
        if obj is None:
            summary_lines.append(f"{name},,")
        else:
            summary_lines.append(f"{name},{_fmt(obj)},{_fmt(obj - result.objective)}")
    summary_path = _write(out / "summary.csv", "\n".join(summary_lines) + "\n")
    return PlanResult(
        plan=result.plan,
        objective=result.objective,
        strategy_objectives=objectives,
        paths=(plan_path, svg_path, frontier_path, summary_path),
    )


@functools.lru_cache(maxsize=None)
def _canonical_plans(T: int) -> Mapping[str, MergePlan | None]:
    """The four canonical strategies; progressive is None unless T is a power of two.

    Cached per T; plans are frozen and the mapping is read-only.
    """
    return MappingProxyType({
        "vanilla": plan_vanilla(T),
        "progressive": plan_progressive(T) if (T & (T - 1)) == 0 else None,
        "boot": plan_sequential_boot(T),
        "consistency": plan_sequential_consistency(T),
    })


def _strategy_objectives(sched, data, shrink, surr) -> dict[str, float | None]:
    # w2_objective's arithmetic, over one single-step matrix for all four plans
    single = single_step_matrix(sched, data)
    objectives: dict[str, float | None] = {}
    for name, plan in _canonical_plans(sched.T).items():
        if plan is None:
            objectives[name] = None
        else:
            diff = surr.entries - plan_entries(plan, single, shrink.gamma)
            objectives[name] = float(np.dot(diff, diff))
    return objectives


# --------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepRecord:
    """Objectives and gaps to the DP optimum for one grid point."""

    lam: float
    vanilla: float
    progressive: float | None
    boot: float
    consistency: float
    dp: float
    flags: str = ""

    def gaps(self) -> dict[str, float | None]:
        return {
            "vanilla": self.vanilla - self.dp,
            "progressive": None if self.progressive is None else self.progressive - self.dp,
            "boot": self.boot - self.dp,
            "consistency": self.consistency - self.dp,
        }


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    path: Path


@dataclass(frozen=True)
class AblationResult:
    """One sweep per (T, s) grid point."""

    sweeps: dict[tuple[int, float], SweepResult]
    paths: tuple[Path, ...]


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Evaluate the four canonical strategies and the DP optimum over the lambda grid.

    The whole grid is one batched pass: each lambda is one coordinate of a
    single ``DiagGaussian``, the DP is :func:`scalar_dp` over all columns at
    once, and rows are sorted by lambda before emission.
    """
    _require_cosine(cfg)
    return _run_one_sweep(cfg, cfg.T, cfg.s_train, cfg.out_dir / "sweep.csv")


def run_ablation(cfg: ExperimentConfig) -> AblationResult:
    """Repeat the lambda sweep over the configured T and s grids.

    One CSV per (T, s) combination, named ``sweep_T{T}_s{s}.csv``; falls
    back to the single configured T and s when a grid is absent.
    """
    _require_cosine(cfg)
    for name, grid in (("T_grid", cfg.T_grid), ("s_grid", cfg.s_grid)):
        if grid is not None and not grid:
            raise ValueError(f"{name} must be non-empty")
    T_values = cfg.T_grid if cfg.T_grid is not None else (cfg.T,)
    s_values = cfg.s_grid if cfg.s_grid is not None else (cfg.s_train,)
    sweeps: dict[tuple[int, float], SweepResult] = {}
    for T in T_values:
        for s in s_values:
            path = cfg.out_dir / f"sweep_T{T}_s{s:g}.csv"
            sweeps[(T, float(s))] = _run_one_sweep(cfg, T, float(s), path)
    return AblationResult(
        sweeps=sweeps, paths=tuple(r.path for r in sweeps.values())
    )


def _require_cosine(cfg: ExperimentConfig) -> None:
    if cfg.schedule_file is not None:
        raise ValueError("schedule_file is set but sweeps use the built-in cosine schedule")


def _run_one_sweep(cfg: ExperimentConfig, T: int, s_train: float, path: Path) -> SweepResult:
    lambdas = cfg.sweep_lambdas()
    records = _sweep_records(T, s_train, lambdas) if lambdas.size else []
    records.sort(key=lambda r: r.lam)

    lines = [_SWEEP_HEADER]
    for r in records:
        gaps = r.gaps()
        prog = "" if r.progressive is None else _fmt(r.progressive)
        gap_prog = "" if gaps["progressive"] is None else _fmt(gaps["progressive"])
        lines.append(
            ",".join(
                [
                    _fmt(r.lam),
                    _fmt(r.vanilla),
                    prog,
                    _fmt(r.boot),
                    _fmt(r.consistency),
                    _fmt(r.dp),
                    _fmt(gaps["vanilla"]),
                    gap_prog,
                    _fmt(gaps["boot"]),
                    _fmt(gaps["consistency"]),
                    r.flags,
                ]
            )
        )
    written = _write(path, "\n".join(lines) + "\n")
    return SweepResult(records=tuple(records), path=written)


def _sweep_records(T: int, s_train: float, lambdas: np.ndarray) -> list[SweepRecord]:
    """One record per lambda, from a single d = len(lambdas) problem.

    Every quantity is coordinate-separable, so column k is the d = 1 problem
    of ``data.lam[k]`` (sorted descending), bit for bit.  The objective is
    taken per coordinate, ``(surr - e) * (surr - e)``, which is what
    ``w2_objective`` computes at d = 1.
    """
    sched = make_cosine_schedule(T)
    data = DiagGaussian(lambdas)
    shrink = shrinkage(sched, data, s_train)
    surr = surrogate_target(sched, data).entries
    rho = PreferenceVector.from_variances(data).rho
    single = single_step_matrix(sched, data)  # shared by the canonical plans and the DP
    entries = {
        name: None if plan is None else plan_entries(plan, single, shrink.gamma)
        for name, plan in _canonical_plans(T).items()
    }
    entries["dp"] = scalar_dp(single, shrink.gamma, rho)
    obj = {name: None if e is None else (surr - e) * (surr - e) for name, e in entries.items()}
    return [
        SweepRecord(
            lam=float(lam),
            vanilla=float(obj["vanilla"][k]),
            progressive=None if obj["progressive"] is None else float(obj["progressive"][k]),
            boot=float(obj["boot"][k]),
            consistency=float(obj["consistency"][k]),
            dp=float(obj["dp"][k]),
            flags="" if obj["progressive"] is not None else "progressive_skipped",
        )
        for k, lam in enumerate(data.lam)
    ]


# --------------------------------------------------------------------------
# arc diagrams

_TICK_SPACING = 20.0
_MARGIN = 30.0


def render_arc_diagram(plan: MergePlan, T: int) -> str:
    """Deterministic SVG arc diagram of a merge plan.

    One tick per step on a baseline; one arc per merge-performing node
    spanning its interval.  Stroke lightness is linear in tree depth with
    the deepest (earliest) merges lightest; deeper arcs are drawn first so
    later merges sit on top.
    """
    if plan.interval != (1, T):
        raise ValueError(f"plan covers {plan.interval}, expected (1, {T})")

    def x(t: int) -> float:
        return _MARGIN + (t - 1) * _TICK_SPACING

    nodes = sorted(
        ((node.interval, depth) for node, depth in internal_nodes(plan)),
        key=lambda item: (-item[1], item[0]),
    )
    max_depth = max((depth for _, depth in nodes), default=0)
    max_radius = (T - 1) * _TICK_SPACING / 2.0
    width = 2 * _MARGIN + (T - 1) * _TICK_SPACING
    baseline = max_radius + 20.0
    height = baseline + 30.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<line x1="{x(1):.2f}" y1="{baseline:.2f}" x2="{x(T):.2f}" '
        f'y2="{baseline:.2f}" stroke="#444444" stroke-width="1"/>',
    ]
    for (t1, t2), depth in nodes:
        r = (x(t2) - x(t1)) / 2.0
        lightness = 30.0 if max_depth == 0 else 30.0 + 50.0 * depth / max_depth
        parts.append(
            f'<path d="M {x(t1):.2f} {baseline:.2f} A {r:.2f} {r:.2f} 0 0 1 '
            f'{x(t2):.2f} {baseline:.2f}" fill="none" '
            f'stroke="hsl(215,70%,{lightness:.1f}%)" stroke-width="2"/>'
        )
    for t in range(1, T + 1):
        parts.append(
            f'<line x1="{x(t):.2f}" y1="{baseline - 4:.2f}" x2="{x(t):.2f}" '
            f'y2="{baseline + 4:.2f}" stroke="#444444" stroke-width="1"/>'
        )
    labels = {1, T}
    for t in sorted(labels):
        parts.append(
            f'<text x="{x(t):.2f}" y="{baseline + 18:.2f}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{t}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# gmm experiments


@dataclass(frozen=True)
class GmmApproxRow:
    k: int
    bound: float | None
    mc_loss: float | None
    stderr: float | None
    seed: int
    flags: str = ""


@dataclass(frozen=True)
class GmmApproxResult:
    rows: tuple[GmmApproxRow, ...]
    path: Path


def _child_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _check_sample_counts(cfg: ExperimentConfig) -> None:
    if cfg.n_fit < 1:
        raise ValueError(f"n_fit must be at least 1, got {cfg.n_fit}")
    if cfg.n_mc < 2:
        raise ValueError(f"n_mc must be at least 2 for a standard error, got {cfg.n_mc}")


def _check_fit_count(n_fit: int, d: int) -> None:
    # fewer samples than an affine expert's d + 1 coefficients per coordinate
    # leave the normal equations singular, and the bound reads near zero
    if n_fit < d + 1:
        raise ValueError(f"n_fit must be at least d + 1 = {d + 1} for the affine fit, got {n_fit}")


def run_gmm_approx(cfg: ExperimentConfig) -> GmmApproxResult:
    """Clustering bound and Monte-Carlo loss for each composition horizon k.

    The teacher chain covers the k noisiest steps of the schedule (input at
    the terminal level, where the noisy marginal is exactly standard
    normal); horizons whose expansion would exceed the cap are emitted as
    flagged rows rather than dropped.
    """
    if not cfg.k_grid:
        raise ValueError("k_grid must be non-empty")
    _check_sample_counts(cfg)
    gmm = resolve_mixture(cfg)
    _check_fit_count(cfg.n_fit, gmm.d)
    sched = resolve_schedule(cfg)
    t_hi = cfg.start_t if cfg.start_t is not None else sched.T
    rows: list[GmmApproxRow] = []
    for k in cfg.k_grid:
        if not 1 <= k <= t_hi:
            raise ValueError(f"horizon k={k} does not fit below start_t={t_hi}")
        if gmm.K**k > cfg.expansion_cap:
            rows.append(
                GmmApproxRow(k=k, bound=None, mc_loss=None, stderr=None,
                             seed=cfg.seed, flags="cap_exceeded")
            )
            continue
        ops = [single_step_moe(gmm, sched, t) for t in range(t_hi, t_hi - k, -1)]
        expansion = compose_expand(ops, cap=cfg.expansion_cap)
        sampler = NoisySampler(gmm=gmm, sched=sched, t=t_hi)
        fit_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k, 1)))
        samples = sampler.sample(cfg.n_fit, fit_rng)
        fit = _compress(expansion, samples, n_clusters=gmm.K, seed=_child_seed(cfg.seed, k, 2))
        mc = mc_distillation_loss(
            fit.student, None, sampler, cfg.n_mc, seed=_child_seed(cfg.seed, k, 3)
        )
        rows.append(
            GmmApproxRow(k=k, bound=fit.bound, mc_loss=mc.mean,
                         stderr=mc.stderr, seed=cfg.seed)
        )

    lines = [_GMM_APPROX_HEADER]
    for r in rows:
        cells = [
            str(r.k),
            "" if r.bound is None else _fmt(r.bound),
            "" if r.mc_loss is None else _fmt(r.mc_loss),
            "" if r.stderr is None else _fmt(r.stderr),
            str(r.seed),
            r.flags,
        ]
        lines.append(",".join(cells))
    path = _write(cfg.out_dir / "gmm_approx.csv", "\n".join(lines) + "\n")
    return GmmApproxResult(rows=tuple(rows), path=path)


@dataclass(frozen=True)
class PropagateResult:
    audit: PropagationAudit
    path: Path


def run_gmm_propagate(cfg: ExperimentConfig) -> PropagateResult:
    """Two-stage distill-and-merge pipeline plus the error-propagation audit.

    Stage students compress their half of the trajectory by iterative
    expand-cluster-refit; the merged student re-compresses the composed
    pair.  The audit measures every term of the propagation bound by Monte
    Carlo on shared samples.
    """
    _check_sample_counts(cfg)
    gmm = resolve_mixture(cfg)
    _check_fit_count(cfg.n_fit, gmm.d)
    sched = resolve_schedule(cfg)
    T = sched.T
    k1 = cfg.split if cfg.split is not None else T // 2
    if not 1 <= k1 < T:
        raise ValueError(f"split must be in [1, T-1], got {k1}")

    stage1 = distill_chain(
        gmm, sched, t_hi=T, t_lo=T - k1 + 1,
        n_fit=cfg.n_fit, seed=_child_seed(cfg.seed, 11),
    )
    stage2 = distill_chain(
        gmm, sched, t_hi=T - k1, t_lo=1,
        n_fit=cfg.n_fit, seed=_child_seed(cfg.seed, 12),
    )
    expansion = compose_expand([stage1, stage2], cap=cfg.expansion_cap)
    sampler = NoisySampler(gmm=gmm, sched=sched, t=T)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 13)))
    samples = sampler.sample(cfg.n_fit, rng)
    merged = _compress(
        expansion, samples, n_clusters=gmm.K, seed=_child_seed(cfg.seed, 14)
    ).student

    audit = error_propagation_audit(
        merged, sampler, n=cfg.n_mc, seed=_child_seed(cfg.seed, 15)
    )

    line = ",".join(
        [
            _fmt(audit.final.mean),
            _fmt(audit.final.stderr),
            _fmt(audit.merge.mean),
            _fmt(audit.merge.stderr),
            _fmt(audit.shift.mean),
            _fmt(audit.shift.stderr),
            _fmt(audit.stage1.mean),
            _fmt(audit.stage1.stderr),
            _fmt(audit.lipschitz),
            _fmt(audit.rhs),
            _fmt(audit.combined_stderr),
            str(audit.holds).lower(),
            str(cfg.seed),
        ]
    )
    path = _write(
        cfg.out_dir / "gmm_propagate.csv", _PROPAGATE_HEADER + "\n" + line + "\n"
    )
    return PropagateResult(audit=audit, path=path)
