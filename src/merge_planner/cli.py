"""Command-line entry point.

Subcommands mirror the experiment kinds: ``plan`` (one DP run with arc
diagram), ``sweep`` (lambda grid vs canonical strategies), ``gmm-approx``
(clustering bounds over composition horizons), ``gmm-propagate`` (two-stage
audit) and ``verify`` (the full acceptance suite).  Every flag overrides
the corresponding config-file key; ``MERGE_PLANNER_SEED`` overrides the
config seed and is itself overridden by an explicit ``--seed``.  Invalid
input (a ``ValueError``) and an outgrown frontier cap are reported as
``merge-planner: error: <message>`` with exit status 2, as argparse reports
bad flags.
"""

from __future__ import annotations

import argparse
import sys

from .pareto_dp import FrontierCapExceeded
from .report import (
    ExperimentConfig,
    load_config,
    run_ablation,
    run_gmm_approx,
    run_gmm_propagate,
    run_plan,
    run_sweep,
)
from .strategy import format_plan, plan_label

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (INI sections: experiment, lambda, sweep, gmm)")
    parser.add_argument("--T", type=int, dest="T", help="number of trajectory steps")
    parser.add_argument("--s", type=float, dest="s_train", help="optimization time per merge")
    parser.add_argument("--seed", type=int, help="root seed for all stochastic steps")
    parser.add_argument("--out", dest="out_dir", help="output directory")


def _add_schedule_file(parser: argparse.ArgumentParser) -> None:
    # not on ``sweep``: sweeps are defined on the built-in cosine schedule
    parser.add_argument(
        "--schedule-file",
        dest="schedule_file",
        help="CSV schedule to use instead of the built-in cosine one",
    )


def _parse_lambda(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merge-planner",
        description="Optimal merge planning for deterministic denoising trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="compute the DP-optimal merge plan for one lambda vector")
    _add_common(p_plan)
    _add_schedule_file(p_plan)
    p_plan.add_argument("--lambda", dest="lam", help="variance(s), e.g. 1.08 or 0.95,1.25")

    p_sweep = sub.add_parser("sweep", help="strategy-vs-DP objective sweep over a lambda grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--lambda", dest="lam", help="explicit grid values, e.g. 0.2,0.5,1,5")
    p_sweep.add_argument("--T-grid", dest="T_grid", help="repeat over step counts, e.g. 32,64")
    p_sweep.add_argument("--s-grid", dest="s_grid", help="repeat over training times, e.g. 1.6,3.2")

    p_approx = sub.add_parser("gmm-approx", help="clustering bound and MC loss per horizon k")
    _add_common(p_approx)
    _add_schedule_file(p_approx)
    p_approx.add_argument("--mixture", dest="mixture_file", help="mixture specification file")
    p_approx.add_argument("--k-grid", dest="k_grid", help="horizons, e.g. 1,2,3")

    p_prop = sub.add_parser("gmm-propagate", help="two-stage distillation error-propagation audit")
    _add_common(p_prop)
    _add_schedule_file(p_prop)
    p_prop.add_argument("--mixture", dest="mixture_file", help="mixture specification file")
    p_prop.add_argument("--split", type=int, help="first-stage horizon k1 (default T/2)")

    sub.add_parser("verify", help="run every acceptance criterion")
    return parser


def _overrides(args: argparse.Namespace, kind: str) -> dict:
    over: dict = {"kind": kind}
    for key in ("T", "s_train", "seed", "out_dir", "schedule_file", "mixture_file", "split"):
        if getattr(args, key, None) is not None:
            over[key] = getattr(args, key)
    if getattr(args, "lam", None) is not None:
        over["lam_values"] = _parse_lambda(args.lam)
    if getattr(args, "k_grid", None) is not None:
        over["k_grid"] = tuple(int(v) for v in args.k_grid.replace(",", " ").split())
    if getattr(args, "T_grid", None) is not None:
        over["T_grid"] = tuple(int(v) for v in args.T_grid.replace(",", " ").split())
    if getattr(args, "s_grid", None) is not None:
        over["s_grid"] = tuple(float(v) for v in args.s_grid.replace(",", " ").split())
    return over


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        from .verify import run_all  # only here: the other commands never load the suite

        results = run_all()
        return 0 if all(r.passed for r in results) else 1
    try:
        cfg = load_config(args.config, overrides=_overrides(args, args.command))
        return _run(args.command, cfg)
    except (ValueError, FrontierCapExceeded) as exc:
        parser.error(str(exc))


def _run(command: str, cfg: ExperimentConfig) -> int:
    """Run one experiment subcommand, print its summary and return the exit status."""
    if command == "plan":
        result = run_plan(cfg)
        print(f"plan:      {format_plan(result.plan)}")
        print(f"label:     {plan_label(result.plan).value}")
        print(f"objective: {result.objective:.17g}")
        for name, obj in result.strategy_objectives.items():
            shown = "skipped" if obj is None else f"{obj:.17g}"
            print(f"  {name:<12s} {shown}")
        for path in result.paths:
            print(f"wrote {path}")
        return 0

    if command == "sweep":
        if cfg.T_grid is not None or cfg.s_grid is not None:
            ablation = run_ablation(cfg)
            for (T, s), sweep in ablation.sweeps.items():
                print(f"wrote {sweep.path} (T={T}, s={s:g}, {len(sweep.records)} grid points)")
            return 0
        result = run_sweep(cfg)
        print(f"wrote {result.path} ({len(result.records)} grid points)")
        return 0

    if command == "gmm-approx":
        result = run_gmm_approx(cfg)
        for row in result.rows:
            if row.flags:
                print(f"k={row.k}: {row.flags}")
            else:
                print(
                    f"k={row.k}: bound={row.bound:.6e} "
                    f"mc={row.mc_loss:.6e}±{row.stderr:.1e}"
                )
        print(f"wrote {result.path}")
        return 0

    if command == "gmm-propagate":
        result = run_gmm_propagate(cfg)
        a = result.audit
        print(f"final  = {a.final.mean:.6f} ± {a.final.stderr:.6f}")
        print(f"merge  = {a.merge.mean:.6f}, shift = {a.shift.mean:.6f}, stage1 = {a.stage1.mean:.6f}")
        print(f"L^     = {a.lipschitz:.4f} (empirical lower estimate)")
        print(f"rhs    = {a.rhs:.6f}; inequality holds: {a.holds}")
        print(f"wrote {result.path}")
        return 0 if a.holds else 1

    raise AssertionError(f"unhandled command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
