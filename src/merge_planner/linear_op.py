"""Closed-form linear machinery for diagonal-Gaussian denoising trajectories.

Everything in this module is a pure function of a noise schedule and a
diagonal data covariance.  The per-coordinate single-step update factor is

    (alpha[t-1]*alpha[t]*lam + sigma[t-1]*sigma[t]) / (alpha[t]^2*lam + sigma[t]^2)

which is the projection coefficient of the signal-noise vector at t-1 onto
the one at t.  Compositions are coordinate-wise products, finite-time
training shows up as an exponential interpolation weight gamma, and merged
blocks combine by the convex rule ``(1-gamma)*left*right + gamma*right``
with gamma taken at the end time of the merged block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule

__all__ = [
    "DiagGaussian",
    "DiagOperator",
    "ShrinkageProfile",
    "ContractionReport",
    "single_step_operator",
    "single_step_matrix",
    "composite_operator",
    "contraction_certificate",
    "shrinkage",
    "gradient_flow_trajectory",
    "surrogate_target",
    "w2_objective",
    "critical_variance",
]


@dataclass(frozen=True, eq=False)
class DiagGaussian:
    """Centered Gaussian with diagonal covariance; variances stored sorted non-increasing."""

    lam: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=np.float64).reshape(-1).copy()
        if lam.size == 0:
            raise ValueError("lam must be non-empty")
        if not np.all(np.isfinite(lam)):
            raise ValueError("lam contains non-finite entries")
        if np.any(lam < 0.0):
            raise ValueError("variances must be nonnegative")
        lam[::-1].sort()  # descending
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def d(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True, eq=False)
class DiagOperator:
    """Per-coordinate scale factors covering a contiguous block of steps.

    ``interval=(t1, t2)`` records the covered steps; merges check contiguity
    structurally so plans cannot silently skip or reuse steps.
    """

    entries: np.ndarray
    interval: tuple[int, int]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64).reshape(-1).copy()
        if entries.size == 0:
            raise ValueError("entries must be non-empty")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries contain non-finite values")
        if np.any(entries < 0.0):
            raise ValueError("operator entries must be nonnegative")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        t1, t2 = self.interval
        if not (1 <= t1 <= t2):
            raise ValueError(f"invalid interval {self.interval}")
        object.__setattr__(self, "interval", (int(t1), int(t2)))

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def _check_step(sched: NoiseSchedule, t: int) -> None:
    if not 1 <= t <= sched.T:
        raise ValueError(f"step index must be in [1, {sched.T}], got {t}")


def _check_interval(sched: NoiseSchedule, t1: int, t2: int) -> None:
    if not (1 <= t1 <= t2 <= sched.T):
        raise ValueError(f"invalid interval ({t1}, {t2}) for T={sched.T}")


def _single_entries(sched: NoiseSchedule, data: DiagGaussian, t: int) -> np.ndarray:
    a, s = sched.alpha, sched.sigma
    den = a[t] * a[t] * data.lam + s[t] * s[t]
    if np.any(den == 0.0):
        raise ValueError(f"degenerate denominator at t={t}")
    return (a[t - 1] * a[t] * data.lam + s[t - 1] * s[t]) / den


def single_step_operator(sched: NoiseSchedule, data: DiagGaussian, t: int) -> DiagOperator:
    """Optimal single-step update over ``(t, t)``.

    Entry i equals ``<v_{t-1}^i, v_t^i> / ||v_t^i||^2`` written in rational
    form; at ``t = T`` this collapses to ``sigma[T-1]`` for every coordinate.
    """
    _check_step(sched, t)
    return DiagOperator(entries=_single_entries(sched, data, t), interval=(t, t))


def single_step_matrix(sched: NoiseSchedule, data: DiagGaussian) -> np.ndarray:
    """All single-step entries stacked as a ``(T, d)`` matrix; row ``t-1`` is step ``t``.

    Shared by composites, plan evaluation, the interval DP, its brute-force
    oracle and the reference merges in ``tests/plan_reference.py``, so that
    every code path reduces products in the same order (bit-identical results).
    Computed on ``(T, 1)`` columns in the operation order of
    :func:`single_step_operator`, so row ``t-1`` equals its entries bit for bit.
    """
    a, s = sched.alpha[:, None], sched.sigma[:, None]
    den = a[1:] * a[1:] * data.lam + s[1:] * s[1:]
    bad = np.flatnonzero(np.any(den == 0.0, axis=1))
    if bad.size:
        raise ValueError(f"degenerate denominator at t={bad[0] + 1}")
    return (a[:-1] * a[1:] * data.lam + s[:-1] * s[1:]) / den


def _interval_product(single: np.ndarray, t1: int, t2: int) -> np.ndarray:
    # left-to-right sequential reduction; keep in sync with the DP's running products
    return np.multiply.reduce(single[t1 - 1 : t2], axis=0)


def composite_operator(sched: NoiseSchedule, data: DiagGaussian, t1: int, t2: int) -> DiagOperator:
    """Coordinate-wise product of the single-step operators over ``t1..t2``."""
    _check_interval(sched, t1, t2)
    single = single_step_matrix(sched, data)
    return DiagOperator(entries=_interval_product(single, t1, t2), interval=(t1, t2))


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Per-coordinate certificate that the full composition contracts below sqrt(lam)."""

    factor: np.ndarray
    bound: np.ndarray
    slack: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.factor <= self.bound))


def contraction_certificate(sched: NoiseSchedule, data: DiagGaussian) -> ContractionReport:
    """Report ``c_i = composite(1,T)_i``, the bound ``sqrt(lam_i)`` and the slack."""
    c = composite_operator(sched, data, 1, sched.T).entries
    bound = np.sqrt(data.lam)
    return ContractionReport(factor=c, bound=bound, slack=bound - c)


@dataclass(frozen=True, eq=False)
class ShrinkageProfile:
    """Interpolation weights ``gamma[t, i] = exp(-2*s_train*(alpha_t^2*lam_i + sigma_t^2))``.

    Materialized as a ``(T, d)`` matrix (row ``t-1`` holds step ``t``); all
    weights lie in ``(0, 1]`` and equal 1 exactly when ``s_train = 0``.
    """

    s_train: float
    gamma: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=np.float64).copy()
        if gamma.ndim != 2:
            raise ValueError("gamma must be a (T, d) matrix")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)

    @property
    def T(self) -> int:
        return self.gamma.shape[0]

    @property
    def d(self) -> int:
        return self.gamma.shape[1]


def shrinkage(sched: NoiseSchedule, data: DiagGaussian, s_train: float) -> ShrinkageProfile:
    """Materialize the gradient-flow interpolation weights for optimization time ``s_train``."""
    if s_train < 0.0:
        raise ValueError(f"s_train must be nonnegative, got {s_train}")
    a = sched.alpha[1:, None]
    s = sched.sigma[1:, None]
    rate = a * a * data.lam[None, :] + s * s
    return ShrinkageProfile(s_train=float(s_train), gamma=np.exp(-2.0 * s_train * rate))


def gradient_flow_trajectory(
    target: float, init: float, rate: float, s_grid
) -> np.ndarray:
    """Closed-form gradient-flow solution ``a(s) = (1-e^{-2*rate*s})*target + e^{-2*rate*s}*init``.

    ``rate`` is the squared signal-noise norm ``alpha_t^2*lam_i + sigma_t^2``.
    Serves as the analytic side of the ODE oracle check; must be validated
    against direct numerical integration of ``da/ds = -2*rate*(a - target)``.
    """
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    s = np.asarray(s_grid, dtype=np.float64)
    if np.any(s < 0.0):
        raise ValueError("s_grid must be nonnegative")
    decay = np.exp(-2.0 * rate * s)
    return (1.0 - decay) * target + decay * init


def surrogate_target(sched: NoiseSchedule, data: DiagGaussian) -> DiagOperator:
    """Variance-corrected full-trajectory target.

    Per coordinate the product keeps each single-step factor where
    ``lam_i <= 1`` or the factor is ``>= 1``, and clamps contracting factors
    to 1 in high-variance coordinates, so high-variance dimensions are not
    asked to reproduce discretization shrinkage.
    """
    single = single_step_matrix(sched, data)
    keep = (data.lam[None, :] <= 1.0) | (single >= 1.0)
    adjusted = np.where(keep, single, 1.0)
    return DiagOperator(
        entries=np.multiply.reduce(adjusted, axis=0), interval=(1, sched.T)
    )


def w2_objective(candidate: DiagOperator, target: DiagOperator) -> float:
    """Squared 2-Wasserstein distance between the induced centered Gaussians.

    For diagonal operators acting on unit noise this is the squared
    Euclidean distance between the vectors of output standard deviations.
    """
    if candidate.d != target.d:
        raise ValueError(f"dimension mismatch: {candidate.d} vs {target.d}")
    if candidate.interval != target.interval:
        raise ValueError(
            f"interval mismatch: {candidate.interval} vs {target.interval}"
        )
    diff = target.entries - candidate.entries
    return float(np.dot(diff, diff))


def critical_variance(sched: NoiseSchedule) -> tuple[float, np.ndarray]:
    """Threshold variances ``lam0(t) = sigma_t*(sigma_t - sigma_{t-1}) / (alpha_t*(alpha_{t-1} - alpha_t))``.

    ``lam > max_t lam0(t)`` (max over ``t = 1..T-1``) guarantees every
    pre-final single-step factor exceeds 1, the precondition of the
    high-variance one-shot-optimality regime.  Returns ``(max, per_t)``
    with ``per_t[t-1] = lam0(t)``.
    """
    if sched.T < 2:
        return 0.0, np.empty(0)
    a, s = sched.alpha, sched.sigma
    t = np.arange(1, sched.T)
    lam0 = (s[t] * (s[t] - s[t - 1])) / (a[t] * (a[t - 1] - a[t]))
    return float(np.max(lam0)), lam0

