"""One-command acceptance suite: every criterion with its stated tolerance.

Each criterion is a standalone function returning a :class:`CriterionResult`
so the tests and the ``verify`` CLI subcommand share the exact same checks.
Stochastic criteria use fixed seeds; nothing here is calibrated at run time.
"""

from __future__ import annotations

import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .gmm import (
    GaussianMixture,
    NoisySampler,
    _compress,
    apply_chain,
    compose_expand,
    distill_chain,
    error_propagation_audit,
    make_circle_mixture,
    mc_distillation_loss,
    optimal_mixture_denoiser,
    single_step_moe,
)
from .linear_op import (
    DiagGaussian,
    composite_operator,
    contraction_certificate,
    critical_variance,
    gradient_flow_trajectory,
    shrinkage,
    single_step_matrix,
    surrogate_target,
    w2_objective,
)
from .pareto_dp import brute_force_optimum, pareto_dp
from .report import ExperimentConfig, render_arc_diagram, run_plan, run_sweep
from .schedule import make_cosine_schedule
from .strategy import evaluate_plan, plan_sequential_boot, plan_vanilla

__all__ = [
    "CriterionResult",
    "integrate_gradient_flow_rk4",
    "scalar_three_op_values",
    "ALL_CRITERIA",
    "run_all",
]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    measured: str
    tolerance: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{self.index:2d}] {verdict}  {self.name:<38s} "
            f"{self.measured}  ({self.tolerance})  {self.seconds:.1f}s"
        )


def _timed(fn: Callable[[], tuple[bool, str]], index: int, name: str, tolerance: str) -> CriterionResult:
    start = time.perf_counter()
    passed, measured = fn()
    return CriterionResult(
        index=index,
        name=name,
        passed=passed,
        measured=measured,
        tolerance=tolerance,
        seconds=time.perf_counter() - start,
    )


def integrate_gradient_flow_rk4(
    target: np.ndarray,
    init: np.ndarray,
    rate: np.ndarray,
    s_grid: np.ndarray,
    substeps: int = 40,
) -> np.ndarray:
    """Classic fixed-step RK4 integration of ``da/ds = -2*rate*(a - target)``.

    Integrates all instances simultaneously; the numerical side of the
    gradient-flow oracle, deliberately independent of the closed form.
    Returns an ``(n_instances, len(s_grid))`` array.
    """
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    init = np.atleast_1d(np.asarray(init, dtype=np.float64))
    rate = np.atleast_1d(np.asarray(rate, dtype=np.float64))
    s_grid = np.asarray(s_grid, dtype=np.float64)

    def f(a: np.ndarray) -> np.ndarray:
        return -2.0 * rate * (a - target)

    a = init.copy()
    out = np.empty((init.shape[0], s_grid.shape[0]))
    out[:, 0] = a
    for j in range(1, s_grid.shape[0]):
        h = (s_grid[j] - s_grid[j - 1]) / substeps
        for _ in range(substeps):
            k1 = f(a)
            k2 = f(a + 0.5 * h * k1)
            k3 = f(a + 0.5 * h * k2)
            k4 = f(a + h * k3)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, j] = a
    return out


def scalar_three_op_values(
    a1: float, a2: float, a3: float, g_end: float, g_mid: float
) -> tuple[float, float, float]:
    """Merged outcomes of the three canonical shapes over three consecutive steps.

    ``g_end`` is the shrinkage at the block's end time, ``g_mid`` the one at
    the middle step (used only by the consistency shape).  Returns
    ``(vanilla, boot, consistency)``.
    """
    vanilla = (1.0 - g_end) * a1 * a2 * a3 + g_end * a3
    boot = ((1.0 - g_end) * a2 * a3 + g_end * a3) * ((1.0 - g_end) * a1 + g_end)
    consistency = a3 * (
        (1.0 - g_end) * ((1.0 - g_mid) * a1 * a2 + g_mid * a2) + g_end
    )
    return vanilla, boot, consistency


# --------------------------------------------------------------------------
# criteria


def criterion_dp_optimality() -> CriterionResult:
    def body() -> tuple[bool, str]:
        rng = np.random.default_rng(20240501)
        worst = 0.0
        # draws per (d, s) pair: the oracle scores every plan, about 4x more per step of T
        draws = {2: 20, 3: 20, 4: 20, 5: 20, 6: 20, 7: 8, 8: 4, 9: 2, 10: 1}
        cases = {T: 0 for T in draws}
        for T, n_draws in draws.items():
            sched = make_cosine_schedule(T)
            for d in (1, 2, 3):
                for s in (1.6, 3.2, 6.4):
                    for _ in range(n_draws):
                        lam = 2.0 * (1.0 - rng.random(d))  # in (0, 2]
                        data = DiagGaussian(lam)
                        shrink = shrinkage(sched, data, s)
                        surr = surrogate_target(sched, data)
                        dp = pareto_dp(sched, data, shrink, surr)
                        bf = brute_force_optimum(sched, data, shrink, surr)
                        worst = max(worst, abs(dp.objective - bf.objective))
                        cases[T] += 1
        per_T = ", ".join(f"T={T}: {n}" for T, n in cases.items())
        return worst <= 1e-12, (
            f"max|dp-bruteforce| = {worst:.2e} over {sum(cases.values())} cases ({per_T})"
        )

    return _timed(body, 1, "dp-matches-brute-force-oracle", "tol 1e-12, <30s")


def criterion_low_variance_phase() -> CriterionResult:
    def body() -> tuple[bool, str]:
        sched = make_cosine_schedule(32)
        boot = plan_sequential_boot(32)
        worst = -np.inf
        for lam in (0.2, 0.5, 1.0):
            data = DiagGaussian([lam])
            shrink = shrinkage(sched, data, 6.4)
            surr = surrogate_target(sched, data)
            dp = pareto_dp(sched, data, shrink, surr)
            gap = w2_objective(evaluate_plan(boot, sched, data, shrink), surr) - dp.objective
            worst = max(worst, abs(gap))
        return worst <= 1e-12, f"max boot gap = {worst:.2e} over lam in {{0.2, 0.5, 1.0}}"

    return _timed(body, 2, "sequential-boot-optimal-low-variance", "tol 1e-12, <10s")


def criterion_high_variance_phase() -> CriterionResult:
    def body() -> tuple[bool, str]:
        sched = make_cosine_schedule(32)
        lam = 5.0
        data = DiagGaussian([lam])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        dp = pareto_dp(sched, data, shrink, surr)
        vanilla_obj = w2_objective(
            evaluate_plan(plan_vanilla(32), sched, data, shrink), surr
        )
        gap = abs(vanilla_obj - dp.objective)
        lam0, _ = critical_variance(sched)
        ok = gap <= 1e-12 and lam > lam0
        return ok, f"vanilla gap = {gap:.2e}; precondition lam=5 > max lam0 = {lam0:.4f}"

    return _timed(body, 3, "vanilla-optimal-high-variance", "tol 1e-12, <10s")


def criterion_contraction() -> CriterionResult:
    def body() -> tuple[bool, str]:
        min_slack = np.inf
        for T in (32, 64):
            sched = make_cosine_schedule(T)
            for lam in (0.2, 1.0, 2.0, 5.0):
                report = contraction_certificate(sched, DiagGaussian([lam]))
                min_slack = min(min_slack, float(np.min(report.slack)))
        return min_slack > 0.0, f"min slack sqrt(lam)-c = {min_slack:.3e}"

    return _timed(body, 4, "composite-contracts-below-sqrt-lam", "strict > 0, <1s")


def criterion_gradient_flow_oracle() -> CriterionResult:
    def body() -> tuple[bool, str]:
        rng = np.random.default_rng(777)
        n = 100
        rate = rng.uniform(0.05, 3.0, size=n)
        init = rng.uniform(-2.0, 2.0, size=n)
        target = rng.uniform(-2.0, 2.0, size=n)
        s_grid = np.linspace(0.0, 10.0, 101)
        numeric = integrate_gradient_flow_rk4(target, init, rate, s_grid)
        closed = np.stack(
            [gradient_flow_trajectory(target[i], init[i], rate[i], s_grid) for i in range(n)]
        )
        err = float(np.max(np.abs(closed - numeric)))
        return err <= 1e-8, f"max|closed-RK4| = {err:.2e} over {n} instances"

    return _timed(body, 5, "gradient-flow-closed-form-vs-rk4", "tol 1e-8, <5s")


def criterion_three_op_orderings() -> CriterionResult:
    def body() -> tuple[bool, str]:
        rng = np.random.default_rng(424242)
        failures = 0
        for _ in range(200):
            a = rng.uniform(0.02, 0.98, size=3)
            g_end, g_mid = rng.uniform(0.02, 0.98, size=2)
            vanilla, boot, cons = scalar_three_op_values(*a, g_end, g_mid)
            if not (boot <= vanilla and boot <= cons):
                failures += 1
        for _ in range(200):
            a = rng.uniform(1.02, 5.0, size=3)
            g_end, g_mid = rng.uniform(0.02, 0.98, size=2)
            vanilla, boot, cons = scalar_three_op_values(*a, g_end, g_mid)
            if not (vanilla >= boot and vanilla >= cons):
                failures += 1
        return failures == 0, f"{failures} ordering failures over 400 draws"

    return _timed(body, 6, "scalar-three-operator-orderings", "exact, <1s")


def criterion_gating_and_expansion() -> CriterionResult:
    def body() -> tuple[bool, str]:
        gmm = make_circle_mixture(8)
        sched = make_cosine_schedule(32)
        ops = [single_step_moe(gmm, sched, 32), single_step_moe(gmm, sched, 31)]
        expansion = compose_expand(ops)
        if expansion.n_experts != 64:
            return False, f"expected 64 components, got {expansion.n_experts}"
        sampler = NoisySampler(gmm=gmm, sched=sched, t=32)
        z = sampler.sample(1000, np.random.default_rng(7))
        sum_dev = 0.0
        nonneg = True
        for gating in (ops[0].gating, ops[1].gating, expansion.gating):
            w = gating.weights(z)
            sum_dev = max(sum_dev, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
            nonneg = nonneg and bool(np.all(w >= 0.0))
        z500 = z[:500]
        dev = float(
            np.max(np.abs(expansion.apply(z500) - apply_chain(ops, z500)))
        )
        ok = sum_dev <= 1e-10 and nonneg and dev <= 1e-8
        return ok, f"count=64; max|sum w - 1| = {sum_dev:.2e}; max expansion dev = {dev:.2e}"

    return _timed(body, 7, "mixture-gating-and-expansion", "1e-10 / 1e-8, <10s")


def criterion_approximation_bound() -> CriterionResult:
    def body() -> tuple[bool, str]:
        gmm = make_circle_mixture(8)
        sched = make_cosine_schedule(32)
        sampler = NoisySampler(gmm=gmm, sched=sched, t=32)
        bounds = []
        mc_ok = True
        for k in (1, 2, 3):
            ops = [single_step_moe(gmm, sched, t) for t in range(32, 32 - k, -1)]
            expansion = compose_expand(ops)
            samples = sampler.sample(8192, np.random.default_rng(1000 + k))
            fit = _compress(expansion, samples, n_clusters=8, seed=k)
            mc = mc_distillation_loss(fit.student, None, sampler, 100_000, seed=2000 + k)
            bounds.append(fit.bound)
            mc_ok = mc_ok and mc.mean <= fit.bound + 3.0 * mc.stderr
        ok = (
            bounds[0] <= 1e-10
            and bounds[1] > 0.0
            and bounds[2] > 0.0
            and bounds[0] <= bounds[1] <= bounds[2]
            and mc_ok
        )
        return ok, (
            f"bounds k=1..3: {bounds[0]:.2e}, {bounds[1]:.4e}, {bounds[2]:.4e}; "
            f"mc within bound: {mc_ok}"
        )

    return _timed(
        body, 8, "clustering-bound-certified-monotone", "k=1 tol 1e-10, <60s"
    )


def criterion_error_propagation() -> CriterionResult:
    def body() -> tuple[bool, str]:
        gmm = make_circle_mixture(8)
        sched = make_cosine_schedule(32)
        stage1 = distill_chain(gmm, sched, t_hi=32, t_lo=17, n_fit=4096, seed=11)
        stage2 = distill_chain(gmm, sched, t_hi=16, t_lo=1, n_fit=4096, seed=12)
        expansion = compose_expand([stage1, stage2])
        sampler = NoisySampler(gmm=gmm, sched=sched, t=32)
        samples = sampler.sample(4096, np.random.default_rng(13))
        merged = _compress(expansion, samples, n_clusters=8, seed=14).student
        audit = error_propagation_audit(merged, sampler, n=100_000, seed=15)
        return audit.holds, (
            f"lhs = {audit.final.mean:.4f} <= rhs = {audit.rhs:.4f} "
            f"(+3se = {3 * audit.combined_stderr:.4f}); L^ = {audit.lipschitz:.2f}"
        )

    return _timed(body, 9, "two-stage-error-propagation-bound", "lhs<=rhs+3se, <120s")


def criterion_linear_reduction() -> CriterionResult:
    def body() -> tuple[bool, str]:
        sched = make_cosine_schedule(32)
        lam = np.array([1.3, 0.7])
        gmm = GaussianMixture(
            pi=[1.0], mu=np.zeros((1, 2)), cov=np.diag(lam)[None, :, :]
        )
        data = DiagGaussian(lam)
        single = single_step_matrix(sched, data)
        z = np.random.default_rng(3).normal(size=(64, 2))
        worst = 0.0
        ops = []
        for t in range(1, 33):
            op = single_step_moe(gmm, sched, t)
            ops.append(op)
            diag = np.sort(np.diag(op.A[0]))[::-1]
            worst = max(worst, float(np.max(np.abs(diag - single[t - 1]))))
            worst = max(worst, float(np.max(np.abs(op.b[0]))))
            lin_out = z * np.diag(op.A[0])[None, :]
            worst = max(worst, float(np.max(np.abs(op.apply(z) - lin_out))))
            # posterior-mean denoiser vs the linear closed form
            a, s = sched.alpha[t], sched.sigma[t]
            denoised = optimal_mixture_denoiser(gmm, sched, t, z)
            lin_denoised = z * (a * lam / (a * a * lam + s * s))[None, :]
            worst = max(worst, float(np.max(np.abs(denoised - lin_denoised))))
        # k-step compositions vs the coordinate-wise products
        for t1, t2 in ((31, 32), (25, 32), (1, 32)):
            chain = list(reversed(ops[t1 - 1 : t2]))
            expansion = compose_expand(chain)
            diag = np.sort(np.diag(expansion.A[0]))[::-1]
            comp = composite_operator(sched, data, t1, t2).entries
            worst = max(worst, float(np.max(np.abs(diag - comp))))
        return worst <= 1e-12, f"max deviation from linear operators = {worst:.2e}"

    return _timed(body, 10, "k1-mixture-reduces-to-linear", "tol 1e-12, <1s")


def criterion_determinism() -> CriterionResult:
    def body() -> tuple[bool, str]:
        cfg = ExperimentConfig(
            kind="sweep",
            T=32,
            s_train=6.4,
            lam_values=(0.2, 0.5, 1.0, 1.08, 1.5, 2.0, 3.0, 5.0),
            seed=0,
        )
        with tempfile.TemporaryDirectory() as tmp:
            first = run_sweep(replace(cfg, out_dir=Path(tmp) / "a")).path.read_bytes()
            second = run_sweep(replace(cfg, out_dir=Path(tmp) / "b")).path.read_bytes()
            plan_cfg = ExperimentConfig(
                kind="plan", T=32, s_train=6.4, lam_values=(1.08,)
            )
            svg_a = run_plan(replace(plan_cfg, out_dir=Path(tmp) / "pa"))
            svg_b = run_plan(replace(plan_cfg, out_dir=Path(tmp) / "pb"))
            svg_equal = (
                render_arc_diagram(svg_a.plan, 32).encode()
                == render_arc_diagram(svg_b.plan, 32).encode()
                and svg_a.paths[1].read_bytes() == svg_b.paths[1].read_bytes()
            )
        csv_equal = first == second
        return csv_equal and svg_equal, (
            f"sweep bytes identical: {csv_equal}; svg bytes identical: {svg_equal}"
        )

    return _timed(body, 11, "byte-identical-reruns", "exact bytes, <20s")


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_dp_optimality,
    criterion_low_variance_phase,
    criterion_high_variance_phase,
    criterion_contraction,
    criterion_gradient_flow_oracle,
    criterion_three_op_orderings,
    criterion_gating_and_expansion,
    criterion_approximation_bound,
    criterion_error_propagation,
    criterion_linear_reduction,
    criterion_determinism,
)


def run_all(stream=None) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one verdict line each."""
    stream = sys.stdout if stream is None else stream
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        print(result.line(), file=stream, flush=True)
        results.append(result)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed", file=stream, flush=True)
    return results
