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
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .schedule import NoiseSchedule

__all__ = [
    "DiagGaussian",
    "SignalNoiseVector",
    "DiagOperator",
    "ShrinkageProfile",
    "ContractionReport",
    "signal_noise_vector",
    "single_step_operator",
    "single_step_matrix",
    "composite_operator",
    "contraction_certificate",
    "shrinkage",
    "gradient_flow_trajectory",
    "merge",
    "direct_merge",
    "surrogate_target",
    "w2_objective",
    "critical_variance",
    "diagonalize_covariance",
    "write_operator_csv",
    "read_operator_csv",
    "write_shrinkage_csv",
    "read_shrinkage_csv",
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


class SignalNoiseVector(NamedTuple):
    """Per-coordinate signal strength ``alpha[t]*sqrt(lam_i)`` and noise level ``sigma[t]``."""

    s: float
    n: float

    def norm_sq(self) -> float:
        return self.s * self.s + self.n * self.n

    def dot(self, other: "SignalNoiseVector") -> float:
        return self.s * other.s + self.n * other.n


def signal_noise_vector(sched: NoiseSchedule, data: DiagGaussian, t: int, i: int) -> SignalNoiseVector:
    """Signal-noise vector of coordinate ``i`` (0-based) at step ``t`` (0..T)."""
    if not 0 <= t <= sched.T:
        raise ValueError(f"t must be in [0, {sched.T}], got {t}")
    return SignalNoiseVector(
        s=sched.alpha[t] * np.sqrt(data.lam[i]), n=sched.sigma[t]
    )


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

    Shared by composites, direct merges and the interval DP so that every
    code path reduces products in the same order (bit-identical results).
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

    def gamma_at(self, t: int) -> np.ndarray:
        """Shrinkage vector for merges ending at step ``t`` (1-based)."""
        if not 1 <= t <= self.T:
            raise ValueError(f"t must be in [1, {self.T}], got {t}")
        return self.gamma[t - 1]


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


def merge(left: DiagOperator, right: DiagOperator, shrink: ShrinkageProfile) -> DiagOperator:
    """Merge two contiguous blocks; gamma is taken at the END time of the merged block.

    ``entries = (1-gamma_t2)*left*right + gamma_t2*right`` — the student
    interpolates between the composition (its target) and the right block
    (its initialization, the operator already ending at t2).
    """
    if left.d != right.d:
        raise ValueError(f"dimension mismatch: {left.d} vs {right.d}")
    t1, m = left.interval
    m2, t2 = right.interval
    if m2 != m + 1:
        raise ValueError(
            f"blocks are not contiguous: left covers ({t1},{m}), right covers ({m2},{t2})"
        )
    g = shrink.gamma_at(t2)
    entries = (1.0 - g) * (left.entries * right.entries) + g * right.entries
    return DiagOperator(entries=entries, interval=(t1, t2))


def direct_merge(
    sched: NoiseSchedule,
    data: DiagGaussian,
    shrink: ShrinkageProfile,
    t1: int,
    t2: int,
) -> DiagOperator:
    """One-shot merge of the raw single-step operators over ``[t1, t2]``.

    ``(1-gamma_t2) * prod_t A_t + gamma_t2 * A_t2`` — the interpolation
    anchor is the raw single-step operator at t2, not a previously merged
    block, which is what makes one-shot plans inequivalent to nested merges.
    """
    _check_interval(sched, t1, t2)
    if t1 == t2:
        return single_step_operator(sched, data, t1)
    single = single_step_matrix(sched, data)
    g = shrink.gamma_at(t2)
    prod = _interval_product(single, t1, t2)
    entries = (1.0 - g) * prod + g * single[t2 - 1]
    return DiagOperator(entries=entries, interval=(t1, t2))


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


def diagonalize_covariance(Sigma) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal change of basis ``Sigma = U Diag(lam) U^T`` with lam sorted non-increasing.

    Rejects matrices that are asymmetric beyond 1e-10 or have an eigenvalue
    below -1e-10; eigenvalues in (-1e-10, 0) are clamped to zero.
    """
    S = np.asarray(Sigma, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("Sigma must be a square matrix")
    if np.max(np.abs(S - S.T)) > 1e-10:
        raise ValueError("Sigma is not symmetric within 1e-10")
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    if np.min(vals) < -1e-10:
        raise ValueError(f"Sigma is indefinite: min eigenvalue {np.min(vals):.3e}")
    order = np.argsort(vals)[::-1]
    lam = np.maximum(vals[order], 0.0)
    U = vecs[:, order]
    return U, lam


def write_operator_csv(op: DiagOperator, path: str | Path) -> None:
    """Serialize as CSV ``i,entry`` with 1-based coordinate index."""
    lines = ["i,entry"]
    for i, e in enumerate(op.entries, start=1):
        lines.append(f"{i},{e:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_operator_csv(path: str | Path, interval: tuple[int, int]) -> DiagOperator:
    """Read an ``i,entry`` CSV back; the covered interval is supplied by the caller."""
    raw = Path(path).read_text(encoding="ascii").strip().splitlines()
    if not raw or raw[0].strip() != "i,entry":
        raise ValueError("operator CSV must start with header row 'i,entry'")
    entries: dict[int, float] = {}
    for line in raw[1:]:
        if not line.strip():
            continue
        i_str, e_str = line.split(",")
        i = int(i_str)
        if i in entries:
            raise ValueError(f"operator CSV repeats the row for i={i}")
        entries[i] = float(e_str)
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("operator CSV must list every i in 1..d exactly once")
    values = np.array([entries[i] for i in range(1, len(entries) + 1)])
    return DiagOperator(entries=values, interval=interval)


def write_shrinkage_csv(shrink: ShrinkageProfile, path: str | Path) -> None:
    """Serialize as CSV ``t,i,gamma`` with 1-based step and coordinate indices."""
    lines = ["t,i,gamma"]
    for t in range(1, shrink.T + 1):
        row = shrink.gamma[t - 1]
        for i in range(1, shrink.d + 1):
            lines.append(f"{t},{i},{row[i - 1]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_shrinkage_csv(path: str | Path) -> np.ndarray:
    """Read a ``t,i,gamma`` CSV back as a ``(T, d)`` matrix."""
    raw = Path(path).read_text(encoding="ascii").strip().splitlines()
    if not raw or raw[0].strip() != "t,i,gamma":
        raise ValueError("shrinkage CSV must start with header row 't,i,gamma'")
    cells: dict[tuple[int, int], float] = {}
    for line in raw[1:]:
        if not line.strip():
            continue
        t_str, i_str, g_str = line.split(",")
        key = (int(t_str), int(i_str))
        if key in cells:
            raise ValueError(f"shrinkage CSV repeats the row for (t, i)={key}")
        cells[key] = float(g_str)
    T = max(t for t, _ in cells)
    d = max(i for _, i in cells)
    if len(cells) != T * d:
        raise ValueError("shrinkage CSV must list every (t, i) pair exactly once")
    gamma = np.empty((T, d))
    for (t, i), g in cells.items():
        gamma[t - 1, i - 1] = g
    return gamma
