"""Discrete noise schedules for deterministic denoising trajectories.

A schedule is the pair of sequences ``alpha[0..T]``, ``sigma[0..T]`` with
``alpha[t]^2 + sigma[t]^2 = 1``, ``alpha`` strictly decreasing from 1 to 0
and ``sigma`` strictly increasing from 0 to 1.  Schedules are stored as
explicit vectors so that user-supplied schedules can be validated and
replayed bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "NoiseSchedule",
    "ScheduleViolation",
    "ScheduleReport",
    "make_cosine_schedule",
    "validate_schedule",
    "write_schedule_csv",
    "read_schedule_csv",
]

_UNIT_TOL = 1e-12


def _frozen_array(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Explicit noise schedule over steps ``t = 0..T``.

    The constructor only checks structure (matching lengths, finiteness,
    ``T >= 1``); use :func:`validate_schedule` to diagnose the schedule
    invariants, which deliberately remains a non-throwing report so that
    broken schedules can be inspected.
    """

    alpha: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim != 1 or alpha.shape[0] < 2:
            raise ValueError("alpha must be a vector of length T+1 with T >= 1")
        n = alpha.shape[0]
        object.__setattr__(self, "alpha", _frozen_array(alpha, n, "alpha"))
        object.__setattr__(self, "sigma", _frozen_array(self.sigma, n, "sigma"))

    @property
    def T(self) -> int:
        return self.alpha.shape[0] - 1


def make_cosine_schedule(T: int) -> NoiseSchedule:
    """Cosine schedule ``alpha[t] = cos((t/T) * pi/2)``, ``sigma[t] = sin(...)``.

    Endpoints are clamped exactly to {0, 1} after the trigonometric
    evaluation; downstream closed forms (e.g. the final-step operator equal
    to ``sigma[T-1]``) rely on the exact zeros.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    theta = (np.arange(T + 1, dtype=np.float64) / T) * (np.pi / 2.0)
    alpha = np.cos(theta)
    sigma = np.sin(theta)
    alpha[0], sigma[0] = 1.0, 0.0
    alpha[T], sigma[T] = 0.0, 1.0
    return NoiseSchedule(alpha=alpha, sigma=sigma)


@dataclass(frozen=True)
class ScheduleViolation:
    """One violated schedule invariant, with location and size."""

    code: str
    index: int
    magnitude: float
    message: str


@dataclass(frozen=True)
class ScheduleReport:
    violations: tuple[ScheduleViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "schedule OK"
        return "\n".join(v.message for v in self.violations)


def validate_schedule(sched: NoiseSchedule) -> ScheduleReport:
    """Check every schedule invariant and report each violation.

    Diagnostic only: never raises.  The report is empty iff the schedule
    satisfies unit norm (within 1e-12), strict monotonicity and the exact
    boundary values.
    """
    a, s = sched.alpha, sched.sigma
    T = sched.T
    bad: list[ScheduleViolation] = []

    norm_err = np.abs(a * a + s * s - 1.0)
    for t in np.nonzero(norm_err > _UNIT_TOL)[0]:
        bad.append(
            ScheduleViolation(
                "unit_norm",
                int(t),
                float(norm_err[t]),
                f"alpha[{t}]^2+sigma[{t}]^2≠1 (off by {norm_err[t]:.3e})",
            )
        )

    da = a[:-1] - a[1:]
    for t0 in np.nonzero(da <= 0.0)[0]:
        t = int(t0) + 1
        bad.append(
            ScheduleViolation(
                "alpha_monotonicity",
                t,
                float(-da[t0]),
                f"alpha monotonicity violation at index {t}: "
                f"alpha[{t - 1}]={a[t - 1]!r} <= alpha[{t}]={a[t]!r}",
            )
        )
    ds = s[1:] - s[:-1]
    for t0 in np.nonzero(ds <= 0.0)[0]:
        t = int(t0) + 1
        bad.append(
            ScheduleViolation(
                "sigma_monotonicity",
                t,
                float(-ds[t0]),
                f"sigma monotonicity violation at index {t}: "
                f"sigma[{t}]={s[t]!r} <= sigma[{t - 1}]={s[t - 1]!r}",
            )
        )

    for code, index, got, want, label in (
        ("boundary_alpha_0", 0, a[0], 1.0, "boundary alpha[0]≠1"),
        ("boundary_sigma_0", 0, s[0], 0.0, "boundary sigma[0]≠0"),
        ("boundary_alpha_T", T, a[T], 0.0, "boundary alpha[T]≠0"),
        ("boundary_sigma_T", T, s[T], 1.0, "boundary sigma[T]≠1"),
    ):
        if got != want:
            bad.append(
                ScheduleViolation(
                    code, index, float(abs(got - want)), f"{label} (got {got!r})"
                )
            )

    return ScheduleReport(violations=tuple(bad))


def write_schedule_csv(sched: NoiseSchedule, path: str | Path) -> None:
    """Export as two-column CSV ``t,alpha`` (header row included)."""
    lines = ["t,alpha"]
    for t in range(sched.T + 1):
        lines.append(f"{t},{sched.alpha[t]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_schedule_csv(path: str | Path) -> NoiseSchedule:
    """Import a schedule from ``t,alpha`` CSV; sigma is recomputed as sqrt(1-alpha^2).

    Every ``t`` in ``0..T`` must appear exactly once.  Only the structure is
    checked here; :func:`validate_schedule` reports the invariants.
    """
    raw = Path(path).read_text(encoding="ascii").strip().splitlines()
    if not raw or raw[0].strip() != "t,alpha":
        raise ValueError("schedule CSV must start with header row 't,alpha'")
    alphas: dict[int, float] = {}
    for line in raw[1:]:
        if not line.strip():
            continue
        t_str, a_str = line.split(",")
        t = int(t_str)
        if t in alphas:
            raise ValueError(f"schedule CSV lists t={t} more than once")
        alphas[t] = float(a_str)
    T = max(alphas)
    if sorted(alphas) != list(range(T + 1)):
        raise ValueError("schedule CSV must list every t in 0..T exactly once")
    alpha = np.array([alphas[t] for t in range(T + 1)], dtype=np.float64)
    sigma = np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))
    return NoiseSchedule(alpha=alpha, sigma=sigma)
