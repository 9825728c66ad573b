"""Gaussian-mixture regime: affine mixture-of-experts denoising operators.

With mixture data the optimal denoiser is a posterior-weighted combination
of per-component affine maps, so every single step is a K-expert affine
mixture-of-experts operator.  Composing k steps expands to K^k effective
components whose weights are products of stagewise posterior gatings
evaluated along the partial trajectory.  Compressing such an expansion back
to K experts is a weighted clustering problem; the per-cluster weighted
least-squares fit yields both the student and a certified upper bound on
its distillation loss, split into an alignment (bias) part and an
irreducible within-cluster variance part.

A single step, an expansion and a student are one type, ``MoeOperator``:
experts stored as an ``A`` stack ``(C, d, d)`` and a ``b`` stack ``(C, d)``
(expert ``k`` is ``z -> op.A[k] z + op.b[k]``, with no per-expert objects)
and a gating.  A single step is gated by ``PosteriorGating``; an expansion
and a student are gated by ``PathGating`` along the chain they run, a
student with its cluster ``membership``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .schedule import NoiseSchedule

__all__ = [
    "GaussianMixture",
    "PosteriorGating",
    "PathGating",
    "MoeOperator",
    "NoisySampler",
    "McEstimate",
    "FitResult",
    "PropagationAudit",
    "make_circle_mixture",
    "posterior_log_weights",
    "posterior_weights",
    "optimal_mixture_denoiser",
    "single_step_moe",
    "compose_expand",
    "apply_chain",
    "fit_cluster_student",
    "choose_partition",
    "mc_distillation_loss",
    "error_propagation_audit",
    "distill_chain",
    "write_mixture",
    "read_mixture",
    "DEFAULT_EXPANSION_CAP",
]

DEFAULT_EXPANSION_CAP = 4096
_LOG_2PI = float(np.log(2.0 * np.pi))
_RIDGE = 1e-10
_KMEANS_ITERS = 200
# the audit's Lipschitz estimate: perturbed pairs, and the perturbation scale
_LIPSCHITZ_PAIRS = 2048
_LIPSCHITZ_SCALE = 1e-3
# OpenBLAS's small-matrix bound: it sends a GEMM with M N K <= 100^3 to a
# small-matrix kernel that rounds differently (0.3.31, DGEMM)
_SMALL_GEMM = 100**3


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Mixture of K Gaussians with weights ``pi``, means ``mu`` and covariances ``cov``.

    ``_eig_vals`` and ``_eig_vecs`` hold the eigendecompositions
    ``cov[k] = vecs[k] diag(vals[k]) vecs[k]^T``, clamped to PSD, computed
    once here.  ``_gating_cache`` holds the posterior gating's constants per
    ``(schedule, t)``.  Compares and hashes by identity.
    """

    pi: np.ndarray
    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=np.float64).reshape(-1).copy()
        mu = np.asarray(self.mu, dtype=np.float64).copy()
        cov = np.asarray(self.cov, dtype=np.float64).copy()
        K = pi.shape[0]
        if mu.ndim != 2 or mu.shape[0] != K:
            raise ValueError("mu must have shape (K, d)")
        d = mu.shape[1]
        if cov.shape != (K, d, d):
            raise ValueError("cov must have shape (K, d, d)")
        if np.any(pi <= 0.0):
            raise ValueError("mixture weights must be strictly positive")
        if abs(float(np.sum(pi)) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1 within 1e-12")
        if np.max(np.abs(cov - np.transpose(cov, (0, 2, 1)))) > 1e-10:
            raise ValueError("component covariances must be symmetric within 1e-10")
        vals, vecs = np.linalg.eigh(cov)
        if np.min(vals) < -1e-10:
            raise ValueError("component covariances must be PSD within -1e-10")
        vals = np.maximum(vals, 0.0)
        for arr in (pi, mu, cov, vals, vecs):
            arr.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_eig_vals", vals)
        object.__setattr__(self, "_eig_vecs", vecs)
        object.__setattr__(self, "_gating_cache", {})

    @property
    def K(self) -> int:
        return self.pi.shape[0]

    @property
    def d(self) -> int:
        return self.mu.shape[1]

    def _gating_constants(self, sched: NoiseSchedule, t: int) -> tuple[np.ndarray, ...]:
        """The posterior gating's per-component constants at level ``t`` of ``sched``.

        ``alpha_t mu_k`` ``(K, d)``, the noisy eigenvalues
        ``alpha_t^2 vals_k + sigma_t^2`` ``(K, d)``, ``log pi_k`` ``(K,)`` and
        ``d log 2 pi + log det`` ``(K,)``, each computed once per key.  The
        key holds the schedule, which hashes by identity, so the cache lives
        and dies with this mixture.
        """
        consts = self._gating_cache.get((sched, t))
        if consts is None:
            a, s = sched.alpha[t], sched.sigma[t]
            noisy_vals = a * a * self._eig_vals + s * s
            norm = self.d * _LOG_2PI + np.sum(np.log(noisy_vals), axis=1)
            consts = (a * self.mu, noisy_vals, np.log(self.pi), norm)
            for arr in consts:
                arr.setflags(write=False)
            self._gating_cache[(sched, t)] = consts
        return consts


def make_circle_mixture(K: int = 8, radius: float = 5.0, iso_std: float = 0.3) -> GaussianMixture:
    """Equal-weight isotropic modes uniformly spaced on a circle."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    angles = 2.0 * np.pi * np.arange(K) / K
    mu = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cov = np.broadcast_to(iso_std**2 * np.eye(2), (K, 2, 2)).copy()
    return GaussianMixture(pi=np.full(K, 1.0 / K), mu=mu, cov=cov)


def _as_batch(z) -> tuple[np.ndarray, bool]:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return z[None, :], True
    if z.ndim != 2:
        raise ValueError(f"z must be a d-vector or an (n, d) batch, got shape {z.shape}")
    return z, False


def _rowsum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)`` with the same bits, computed column by column.

    NumPy reduces each row of a float array in its own inner-loop call: a
    pairwise sum (8 accumulators, blocks of at most 128 entries, halves cut
    at a multiple of 8) added to an initial +0.0.  On rows of a few entries
    that per-row call is the whole cost, so here each add of the same tree
    runs once over all rows.  Layouts that NumPy iterates in another order
    (the last axis not the one of smallest stride) go to ``np.sum``.  The
    sign of a NaN result is not reproduced: NumPy's own add loops pick it
    differently depending on the array length.
    """
    inner = abs(a.strides[-1])
    if a.shape[-1] == 0 or any(
        abs(step) <= inner for step, size in zip(a.strides[:-1], a.shape[:-1]) if size > 1
    ):
        return np.sum(a, axis=-1)
    out = _pairwise_columns(a, 0, a.shape[-1])
    out += 0.0
    return out


def _pairwise_columns(a: np.ndarray, lo: int, n: int) -> np.ndarray:
    """NumPy's pairwise sum of the columns ``lo .. lo + n - 1``, as a new array."""
    if n < 8:
        out = a[..., lo] + a[..., lo + 1] if n > 1 else a[..., lo].copy()
        for i in range(lo + 2, lo + n):
            out += a[..., i]
        return out
    if n <= 128:
        acc = [a[..., lo + j] for j in range(8)]
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            acc = [acc[j] + a[..., i + j] for j in range(8)]
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(stop, lo + n):
            out += a[..., i]
        return out
    half = n // 2
    half -= half % 8
    return _pairwise_columns(a, lo, half) + _pairwise_columns(a, lo + half, n - half)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=0)`` of a ``(K, n)`` array, with scipy's exact arithmetic.

    The max entries of each column are counted (``m``) instead of summed, so
    the result is ``log1p(s / m) + log(m) + max`` with ``s`` the sum of
    ``exp(a - max)`` over the other entries, both summed by NumPy's pairwise
    tree (``_pairwise_columns``); columns where that is not finite fall back
    to ``log(sum(exp(a)))`` on C-contiguous rows.  A plain max-shift
    log-sum-exp differs in the last ulp, which is enough to flip a k-means
    partition downstream.  Every step runs over rows of ``n``.

    The max entries are zeroed as ``e -= at_max``: at a finite max their
    ``exp(0)`` is exactly 1.0, and a non-finite max makes the column
    non-finite, which the fallback recomputes anyway.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a[0].copy()
        for row in a[1:]:
            np.maximum(a_max, row, out=a_max)
        at_max = a == a_max
        e = a - a_max
        np.exp(e, out=e)
        e -= at_max
        # ``_rowsum``'s tree without its trailing ``+= 0.0``: the sum cannot be -0.0
        s = _pairwise_columns(e.T, 0, a.shape[0])
        del e
        m = np.count_nonzero(at_max, axis=0)
        out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            rows = np.ascontiguousarray(a[:, bad].T)
            out[bad] = np.log(np.sum(np.exp(rows), axis=1))
    return out


def posterior_log_weights(gmm: GaussianMixture, sched: NoiseSchedule, t: int, z) -> np.ndarray:
    """Log posterior component responsibilities at noise level ``t``.

    ``log gamma_k ∝ log pi_k + log N(z; alpha_t mu_k, alpha_t^2 cov_k + sigma_t^2 I)``,
    normalized with log-sum-exp so extreme noise levels cannot underflow.
    Returns a C-contiguous ``(n, K)`` array (``(K,)`` for a single point).

    Internally ``z^T`` is held as ``(d, n)`` and the log-weights as
    ``(K, n)``, so every elementwise step and reduction runs over contiguous
    rows of ``n``.  The rotation into the eigenbases is one stacked
    ``matmul`` of the ``(K, d, n)`` shifted points, transposed, by ``vecs``:
    for each component NumPy runs the BLAS call
    ``(z^T - alpha_t mu_k).T @ vecs[k]`` on an F-order ``(n, d)`` operand.
    Writing it ``vecs[k].T @ z^T`` would run another BLAS kernel (``gemv``
    at n = 1), whose rounding need not match.  The ``(K, n, d)`` rotations
    are then laid out as ``(K, d, n)``, so the square and the divide run
    over rows of ``n``, not NumPy's inner loop at width d.
    """
    if not 1 <= t <= sched.T:
        raise ValueError(f"t must be in [1, {sched.T}], got {t}")
    z2, single = _as_batch(z)
    shift, noisy_vals, log_pi, norm = gmm._gating_constants(sched, t)
    zT = np.ascontiguousarray(z2.T)
    y = np.matmul((zT[None] - shift[:, :, None]).transpose(0, 2, 1), gmm._eig_vecs)  # (K, n, d)
    y = np.ascontiguousarray(y.transpose(0, 2, 1))  # (K, d, n): y^T of the rotated points
    y *= y
    y /= noisy_vals[:, :, None]
    # (K, n): ``_rowsum``'s tree; its trailing ``+= 0.0`` is moot on a sum of squares
    lw = _pairwise_columns(y.transpose(0, 2, 1), 0, gmm.d)
    del y  # free the rotations before the log-sum-exp's temporaries
    # ``log pi - 0.5 (norm + quad)``, exactly: -(0.5 x) = (-0.5) x and a - b = a + (-b)
    lw += norm[:, None]
    lw *= -0.5
    lw += log_pi[:, None]
    lw -= _logsumexp(lw)
    return lw[:, 0].copy() if single else np.ascontiguousarray(lw.T)


def posterior_weights(gmm: GaussianMixture, sched: NoiseSchedule, t: int, z) -> np.ndarray:
    """Normalized posterior responsibilities ``gamma_{k,t}(z)``."""
    w = posterior_log_weights(gmm, sched, t, z)
    return np.exp(w, out=w)


def optimal_mixture_denoiser(gmm: GaussianMixture, sched: NoiseSchedule, t: int, z) -> np.ndarray:
    """Posterior-mean estimate of the clean sample given the noisy observation.

    Weighted sum of per-component affine estimators
    ``mu_k + alpha_t cov_k (alpha_t^2 cov_k + sigma_t^2 I)^{-1} (z - alpha_t mu_k)``.
    """
    z2, single = _as_batch(z)
    w = posterior_weights(gmm, sched, t, z2)
    a, s = sched.alpha[t], sched.sigma[t]
    vals, vecs = gmm._eig_vals, gmm._eig_vecs
    out = np.zeros_like(z2)
    for k in range(gmm.K):
        gain = a * vals[k] / (a * a * vals[k] + s * s)  # (d,)
        centered = z2 - a * gmm.mu[k]
        est = gmm.mu[k] + (centered @ vecs[k]) * gain @ vecs[k].T
        out += w[:, k : k + 1] * est
    return out[0] if single else out


@dataclass(frozen=True, eq=False)
class PosteriorGating:
    """Gating by posterior component responsibilities at a fixed noise level.

    Compares and hashes by identity.
    """

    gmm: GaussianMixture
    sched: NoiseSchedule
    t: int

    def weights(self, z2: np.ndarray) -> np.ndarray:
        return posterior_weights(self.gmm, self.sched, self.t, z2)


def _outer(stages: Sequence[np.ndarray]) -> np.ndarray:
    w = stages[0]
    for stage_w in stages[1:]:
        w = np.einsum("ni,nj->nij", w, stage_w).reshape(w.shape[0], -1)
    return w


@dataclass(frozen=True, eq=False)
class PathGating:
    """Weights of an expanded composition: products of stagewise gatings.

    The gating of stage j is evaluated at the output of the j-1 preceding
    FULL operators (not the selected expert path), lazily per batch.
    Component order is lexicographic in the stage index tuples with the
    first applied stage most significant.  A distilled student's gating
    sums them by cluster, ``W_k(z) = sum_{c in S_k} w_c(z)``, through its
    ``membership``, a ``(C, K)`` 0/1 matrix.  Compares and hashes by
    identity.
    """

    ops: tuple
    membership: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.membership is not None:
            m = np.asarray(self.membership, dtype=np.float64).copy()
            m.setflags(write=False)
            object.__setattr__(self, "membership", m)

    def stage_weights(self, z2: np.ndarray) -> list[np.ndarray]:
        """Per-stage gating weights along the trajectory, one ``(n, K_j)`` array per stage."""
        return self._walk(z2, len(self.ops) - 1)[0]

    def trajectory(self, z2: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-stage gating weights and every stage's output, from one pass."""
        return self._walk(z2, len(self.ops))

    def _walk(self, z2: np.ndarray, n_outputs: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        # the first ``n_outputs`` stages are applied; the rest (at most the
        # last) only gate, since nothing reads their output
        stages, points = [], []
        point = z2
        for op in self.ops[:n_outputs]:
            stage_w, point = op.weights_apply(point)
            stages.append(stage_w)
            points.append(point)
        for op in self.ops[n_outputs:]:
            stages.append(op.gating.weights(point))
        return stages, points

    def combine(self, stages: Sequence[np.ndarray]) -> np.ndarray:
        """The gating weights from the stage weights.

        Their outer products, first stage most significant, then summed by
        cluster when a ``membership`` is set.  Each outer product is one
        ``einsum`` loop per row, with the bits of the broadcast product
        ``w[:, :, None] * stage_w[:, None, :]`` except that it writes +0.0
        for a -0.0 product; gating weights are never -0.0.

        With a ``membership`` of shape ``(C, K)``, the products are formed
        and summed by cluster in blocks of ``_SMALL_GEMM // (C K) + 1`` rows
        (245, about 1 MiB of products, at C = 512 and K = 8), the last block
        also taking the remainder; fewer than two blocks' rows are one
        block.  Each block's ``@ membership`` stays above OpenBLAS's
        small-matrix bound, on the GEMM path whose per-element summation
        order does not depend on the row count, so the result has the bits
        of ``outer(stages) @ membership`` formed in one call.
        """
        if self.membership is None:
            return _outer(stages)
        n, (C, K) = stages[0].shape[0], self.membership.shape
        rows = _SMALL_GEMM // (C * K) + 1
        edges = [rows * i for i in range(max(n // rows, 1))] + [n]
        out = np.empty((n, K))
        for lo, hi in zip(edges[:-1], edges[1:]):
            np.matmul(_outer([w[lo:hi] for w in stages]), self.membership, out=out[lo:hi])
        return out

    def weights(self, z2: np.ndarray) -> np.ndarray:
        return self.combine(self.stage_weights(z2))


@dataclass(frozen=True, eq=False)
class MoeOperator:
    """Affine mixture of experts ``z -> sum_k w_k(z) (A_k z + b_k)`` covering ``interval`` steps.

    The experts are stored as two stacks, ``A`` of shape ``(C, d, d)`` and
    ``b`` of shape ``(C, d)``: expert ``k`` is ``z -> A[k] z + b[k]``.  They
    are copied, checked and made read-only once, at construction.  A single
    step is gated by a ``PosteriorGating``; an expansion and a student by a
    ``PathGating``.

    ``weights_apply`` computes the gating once and reuses it for the output,
    which keeps nested operators (students gated by other students) linear
    in chain depth instead of exponential.  ``apply_along_chain`` also
    returns the points of the chain a path gating runs through.  Compares
    and hashes by identity, since array fields have no single truth value.
    """

    A: np.ndarray
    b: np.ndarray
    gating: PosteriorGating | PathGating
    interval: tuple[int, int]

    def __post_init__(self) -> None:
        A = np.array(self.A, dtype=np.float64, order="C")
        b = np.array(self.b, dtype=np.float64, order="C")
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError(f"A must be a (C, d, d) stack of square matrices, got shape {A.shape}")
        if b.shape != A.shape[:2]:
            raise ValueError(f"b must have shape {A.shape[:2]} to match A, got {b.shape}")
        if A.shape[0] < 1:
            raise ValueError("operator must have at least one expert")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("expert parameters must be finite")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        t1, t2 = self.interval
        if not (1 <= t1 <= t2):
            raise ValueError(f"invalid interval {self.interval}")
        object.__setattr__(self, "interval", (int(t1), int(t2)))

    @property
    def n_experts(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def _mix(self, w: np.ndarray, z2: np.ndarray) -> np.ndarray:
        # the matmuls ``np.einsum("nk,kij,nj->ni", w, A, z2, optimize=True)``
        # runs when its path mixes the experts first, sum_k w[n, k] A[k] per
        # sample, then one batched matrix-vector product; NumPy 2.4 takes that
        # path for every n once C >= d^2 (except C = d = 1)
        n, (C, d) = w.shape[0], self.A.shape[:2]
        mixed = (self.A.transpose(1, 2, 0).reshape(d * d, C) @ w.T).reshape(d, d, n)
        return (mixed.transpose(2, 0, 1) @ z2.reshape(n, d, 1)).reshape(n, d) + w @ self.b

    def weights_apply(self, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = self.gating.weights(z2)
        return w, self._mix(w, z2)

    def apply_along_chain(self, z2: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output and the chain's trajectory, gating each operator of the chain once.

        For an operator gated by a ``PathGating``: ``out`` has the bits of
        ``apply(z2)`` and ``points[j]`` those of
        ``apply_chain(gating.ops[: j + 1], z2)``.
        """
        if not isinstance(self.gating, PathGating):
            raise ValueError("operator's gating runs no chain of operators")
        stages, points = self.gating.trajectory(z2)
        return self._mix(self.gating.combine(stages), z2), points

    def apply(self, z) -> np.ndarray:
        z2, single = _as_batch(z)
        _, out = self.weights_apply(z2)
        return out[0] if single else out


def single_step_moe(gmm: GaussianMixture, sched: NoiseSchedule, t: int) -> MoeOperator:
    """Single deterministic update step as a K-expert affine MoE.

    Expert k has ``A_k = (alpha_{t-1} alpha_t cov_k + sigma_{t-1} sigma_t I)
    (alpha_t^2 cov_k + sigma_t^2 I)^{-1}`` and offset
    ``b_k = (alpha_{t-1} I - alpha_t A_k) mu_k``; gating is posterior.
    """
    if not 1 <= t <= sched.T:
        raise ValueError(f"t must be in [1, {sched.T}], got {t}")
    a_prev, s_prev = sched.alpha[t - 1], sched.sigma[t - 1]
    a, s = sched.alpha[t], sched.sigma[t]
    vals, vecs = gmm._eig_vals, gmm._eig_vecs
    A = np.empty((gmm.K, gmm.d, gmm.d))
    b = np.empty((gmm.K, gmm.d))
    for k in range(gmm.K):
        ratio = (a_prev * a * vals[k] + s_prev * s) / (a * a * vals[k] + s * s)
        A[k] = (vecs[k] * ratio) @ vecs[k].T
        b[k] = a_prev * gmm.mu[k] - a * (A[k] @ gmm.mu[k])
    return MoeOperator(
        A=A,
        b=b,
        gating=PosteriorGating(gmm=gmm, sched=sched, t=t),
        interval=(t, t),
    )


def apply_chain(ops: Sequence, z) -> np.ndarray:
    """Sequential application of operators (the expansion's independent oracle)."""
    z2, single = _as_batch(z)
    for op in ops:
        z2 = op.apply(z2)
    return z2[0] if single else z2


def compose_expand(ops: Sequence, cap: int = DEFAULT_EXPANSION_CAP) -> MoeOperator:
    """Expand a composition of MoE operators into its product-of-experts form.

    ``ops`` are given in application order; consecutive intervals must be
    contiguous (each next operator ends where the previous one starts minus
    one).  The expansion has ``prod_k K_k`` components and is rejected when
    that exceeds ``cap``.  Component ``c`` is the ``c``-th expert index tuple
    ``(i_1, ..., i_k)`` in lexicographic order, first applied stage most
    significant (as ``itertools.product``); ``A[c]``, ``b[c]`` is the
    end-to-end map of applying expert ``i_1`` of the first stage, then
    ``i_2`` of the second, and so on.  It is gated by ``PathGating(ops)``,
    so it agrees with applying ``ops`` sequentially.
    """
    if not ops:
        raise ValueError("need at least one operator")
    for prev, nxt in zip(ops, ops[1:]):
        if nxt.interval[1] != prev.interval[0] - 1:
            raise ValueError(
                f"operators are not contiguous: {prev.interval} then {nxt.interval}"
            )
    total = 1
    for op in ops:
        total *= op.n_experts
    if total > cap:
        raise ValueError(
            f"expansion would have {total} components, above the cap of {cap}; "
            "chunk the composition instead"
        )
    d = ops[0].d
    # end-to-end maps of every index prefix, extended one stage at a time
    # (prefix index most significant): A <- A_i A, b <- A_i b + b_i
    A_tot = np.eye(d)[None]
    b_tot = np.zeros((1, d))
    for op in ops:
        A_tot = np.matmul(op.A[None], A_tot[:, None]).reshape(-1, d, d)
        b_tot = (np.matmul(op.A[None], b_tot[:, None, :, None])[..., 0] + op.b).reshape(-1, d)
    return MoeOperator(
        A=A_tot,
        b=b_tot,
        gating=PathGating(ops=tuple(ops)),
        interval=(ops[-1].interval[0], ops[0].interval[1]),
    )


@dataclass(frozen=True, eq=False)
class NoisySampler:
    """Ancestral sampler for the noisy marginal at level ``t``.

    Draws a component, a clean sample from it, then adds isotropic noise:
    ``z = alpha_t x0 + sigma_t eps``, for ``t`` in ``0..T``.  Compares and
    hashes by identity.
    """

    gmm: GaussianMixture
    sched: NoiseSchedule
    t: int

    def __post_init__(self) -> None:
        # a negative level would index the schedule from its end
        if not 0 <= self.t <= self.sched.T:
            raise ValueError(f"t must be in [0, {self.sched.T}], got {self.t}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        gm = self.gmm
        vals, vecs = gm._eig_vals, gm._eig_vecs
        sqrt_cov = np.einsum("kij,kj,klj->kil", vecs, np.sqrt(vals), vecs)
        comp = rng.choice(gm.K, size=n, p=gm.pi)
        x0 = gm.mu[comp] + np.einsum(
            "nij,nj->ni", sqrt_cov[comp], rng.standard_normal((n, gm.d))
        )
        a, s = self.sched.alpha[self.t], self.sched.sigma[self.t]
        return a * x0 + s * rng.standard_normal((n, gm.d))


def _as_callable(op) -> Callable[[np.ndarray], np.ndarray]:
    if callable(op) and not hasattr(op, "apply"):
        return op
    return op.apply


def _chunk_size(n_components: int) -> int:
    # keep per-chunk weight/expert tensors around a few 10^6 elements
    return min(max(64, 4_000_000 // max(n_components, 1)), 8192)


class _FittingSet:
    """Fitting samples of one expansion, with its stage weights evaluated once.

    The gating runs on the first pass, chunk by chunk at the ``_chunk_size``
    boundaries, and keeps only the per-stage weights: n x sum(K_j) doubles,
    not the n x prod(K_j) expansion weights.  Every pass forms the product
    again per chunk, component-major, except that a set of one chunk keeps
    its product for the next pass.
    """

    def __init__(self, expansion: MoeOperator, samples) -> None:
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError("samples must be an (n, d) array")
        self.expansion = expansion
        self.samples = samples
        self._chunks: list[tuple[np.ndarray, list[np.ndarray]]] | None = None
        self._kept: np.ndarray | None = None

    def weights(self):
        """Yield ``(z, wT)`` per chunk: the ``(m, d)`` samples and their ``(C, m)`` weights.

        ``wT`` is C-contiguous, has the bits of
        ``expansion.gating.weights(z).T`` and is read only.  Each product of
        stage weights is one IEEE multiply, as in ``PathGating.combine``,
        broadcast along contiguous sample rows; with a ``membership`` the sum
        by cluster runs sample-major, as there.
        """
        gating = self.expansion.gating
        if self._chunks is None:
            chunk = _chunk_size(self.expansion.n_experts)
            self._chunks = []
            for lo in range(0, self.samples.shape[0], chunk):
                z = self.samples[lo : lo + chunk]
                self._chunks.append((z, gating.stage_weights(z)))
        if self._kept is not None:
            yield self._chunks[0][0], self._kept
            return
        for z, stages in self._chunks:
            if gating.membership is not None:
                wT = np.ascontiguousarray(gating.combine(stages).T)
            else:
                wT = np.ascontiguousarray(stages[0].T)
                for stage_w in stages[1:]:
                    stage_T = np.ascontiguousarray(stage_w.T)
                    wT = (wT[:, None, :] * stage_T[None, :, :]).reshape(-1, z.shape[0])
            wT.setflags(write=False)
            if len(self._chunks) == 1:
                self._kept = wT
            yield z, wT


def _fitting_set(expansion: MoeOperator, samples) -> _FittingSet:
    # ``_compress`` hands its already-gated set to the public functions
    if isinstance(samples, _FittingSet):
        if samples.expansion is not expansion:
            raise ValueError("fitting set was gated for a different expansion")
        return samples
    return _FittingSet(expansion, samples)


def _validate_partition(partition: Sequence[Sequence[int]], n_components: int) -> list[np.ndarray]:
    groups = [np.sort(np.asarray(group, dtype=np.intp)) for group in partition]
    flat = np.concatenate(groups) if groups else np.zeros(0, dtype=np.intp)
    if np.any((flat < 0) | (flat >= n_components)):
        raise ValueError("partition indices out of range")
    counts = np.bincount(flat, minlength=n_components)
    if np.any(counts > 1):
        for k, idx in enumerate(groups):
            repeated = np.unique(idx[1:][idx[1:] == idx[:-1]])
            if repeated.size:
                raise ValueError(f"partition group {k} repeats index {repeated.tolist()}")
        raise ValueError(f"partition groups overlap on {np.flatnonzero(counts > 1).tolist()}")
    if flat.size != n_components:
        raise ValueError("partition must cover every expanded component exactly once")
    return groups


@dataclass(frozen=True)
class FitResult:
    """Clustered student plus the certified empirical loss bound.

    ``bound = bias + variance``: ``bias`` is the weighted distance of the
    fitted experts to the per-sample cluster centroids (reducible), and
    ``variance`` is the within-cluster spread of the teacher components
    (irreducible for the chosen partition).  Both are per-sample averages
    over the fitting set.
    """

    student: MoeOperator
    bound: float
    bias: float
    variance: float
    ridge_flagged: bool


def fit_cluster_student(
    expansion: MoeOperator,
    partition: Sequence[Sequence[int]],
    samples: np.ndarray,
) -> FitResult:
    """Fit one affine expert per cluster by weighted least squares.

    Solves ``inf_{A,b} sum_n sum_{c in S_k} w_c(z_n) ||A z_n + b - g_c(z_n)||^2``
    in closed form via the normal equations over the affine design
    ``u = [z; 1]``; the student's gating aggregates the cluster weights.
    Rank-deficient normal equations are regularized with ridge 1e-10 and
    flagged.
    """
    fitting = _fitting_set(expansion, samples)
    n, d = fitting.samples.shape
    C = expansion.n_experts
    groups = _validate_partition(partition, C)
    K = len(groups)
    H, R, qfull, cquad = _cluster_moments(fitting, groups)

    A_student = np.zeros((K, d, d))  # an empty cluster keeps the zero map
    b_student = np.zeros((K, d))
    flagged = False
    bias = 0.0
    variance = 0.0
    membership = np.zeros((C, K))
    for k, idx in enumerate(groups):
        membership[idx, k] = 1.0
        if idx.size == 0:
            continue
        M, ridged = _solve_normal(H[k], R[k])  # (d, d+1)
        flagged = flagged or ridged
        A_student[k] = M[:, :d]
        b_student[k] = M[:, d]
        fit_term = float(np.sum(M * R[k]))
        bias += max(cquad[k] - fit_term, 0.0)
        variance += max(qfull[k] - cquad[k], 0.0)

    bias /= n
    variance /= n
    student = MoeOperator(
        A=A_student,
        b=b_student,
        gating=PathGating(ops=expansion.gating.ops, membership=membership),
        interval=expansion.interval,
    )
    return FitResult(
        student=student,
        bound=bias + variance,
        bias=bias,
        variance=variance,
        ridge_flagged=flagged,
    )


def _cluster_moments(fitting: _FittingSet, groups: Sequence[np.ndarray]):
    """Normal-equation moments of each cluster, summed over the fitting set.

    For the cluster weight ``W = sum_{c in S} w_c`` and weighted expert sum
    ``S = sum_{c in S} w_c g_c`` at each sample, with ``u = [z; 1]``: ``H``
    ``(K, d+1, d+1)`` sums ``W u u^T``, ``R`` ``(K, d, d+1)`` sums ``S u^T``,
    ``qfull`` sums ``sum_{c in S} w_c |g_c|^2`` and ``cquad`` sums
    ``|S|^2 / W``.  An empty group keeps zero moments.

    Reads each chunk's ``(C, m)`` weights as the fitting set yields them,
    with no copy, and forms a cluster's ``(m, n_k, d)`` expert outputs
    inside the cluster loop, so no expert-output array spans more than one
    cluster.  The bits are those of the per-cluster gathers of sample-major
    arrays.
    """
    d = fitting.samples.shape[1]
    expansion = fitting.expansion
    K = len(groups)
    H = np.zeros((K, d + 1, d + 1))
    R = np.zeros((K, d, d + 1))
    qfull = np.zeros(K)
    cquad = np.zeros(K)
    At = expansion.A.transpose(2, 0, 1)  # (d, C, d): a column block per expert

    for z, wT in fitting.weights():
        m = z.shape[0]
        u = np.concatenate([z, np.ones((m, 1))], axis=1)
        for k, idx in enumerate(groups):
            if idx.size == 0:
                continue
            # the contractions are the matmuls ``np.einsum(..., optimize=True)``
            # runs for ``cij,mj->mci`` (g), ``mc,mci->mi`` (Sk) and ``m,mi,mj->ij``
            # (H); with an inner dimension of d, each element of a column block
            # of ``z @ At`` has the bits of the one-call product
            g = (z @ At[:, idx, :].reshape(d, idx.size * d)).reshape(m, idx.size, d)
            g += expansion.b[idx]
            wk = wT[idx].T  # (m, n_k)
            Wk = np.sum(wk, axis=1)  # (m,)
            Sk = (g.transpose(0, 2, 1) @ wk.reshape(m, idx.size, 1)).reshape(m, d)
            H[k] += (u.T * Wk.reshape(1, m)) @ u
            R[k] += Sk.T @ u
            g *= g  # squared in place, once ``Sk`` has read it
            # ``wk`` and ``gsq`` have the column-major strides of the fancy
            # gathers ``w[:, idx]`` and ``gsq[:, idx]``, so the flat ``qfull``
            # sum adds in the gathers' order; a C-order operand changes its bits
            gsq = np.asfortranarray(_rowsum(g))  # (m, n_k)
            qfull[k] += float(np.sum(wk * gsq))
            # over the samples with W > 0; ``_rowsum(S * S)`` has the bits of
            # ``np.sum(S ** 2, axis=1)``
            pos = Wk > 0.0
            if not pos.all():
                Sk, Wk = Sk[pos], Wk[pos]
            cquad[k] += float(np.sum(_rowsum(Sk * Sk) / Wk))
    return H, R, qfull, cquad


def _solve_normal(H: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, bool]:
    """``M = R H^{-1}`` by Cholesky, and whether ``H`` was rank-deficient.

    A rank-deficient ``H`` is factored as ``H + 1e-10 I`` instead.  The
    LAPACK calls are those of ``scipy.linalg.cho_factor`` and ``cho_solve``
    (upper factor), so ``M`` has their bits, and non-finite input raises
    ``ValueError`` as their ``check_finite`` does.  On these (d+1)-square
    systems the wrappers' other checks cost several times the two calls.
    """
    # Imported here so that processes which never fit a mixture never load SciPy.
    from scipy.linalg.lapack import dpotrf, dpotrs

    if not (np.isfinite(H).all() and np.isfinite(R).all()):
        raise ValueError("array must not contain infs or NaNs")
    factor, info = dpotrf(H, lower=0, clean=0)
    ridged = info > 0
    if ridged:
        factor, info = dpotrf(H + _RIDGE * np.eye(H.shape[0]), lower=0, clean=0)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite"
            )
    M, _ = dpotrs(factor, R.T, lower=0)
    return M.T, ridged


def _component_masses(fitting: _FittingSet) -> np.ndarray:
    total = np.zeros(fitting.expansion.n_experts)
    for _, wT in fitting.weights():
        # in the order of ``np.sum(w, axis=0)``: sample by sample, where a row
        # sum of ``wT`` would add pairwise and change bits, except that NumPy
        # sums a lone column pairwise too
        total += np.sum(wT, axis=1) if len(wT) == 1 else np.cumsum(wT, axis=1)[:, -1]
    return total / fitting.samples.shape[0]


def _weighted_kmeans(points: np.ndarray, masses: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Mass-weighted Lloyd iteration with seeded kmeans++ initialization.

    The seeding keeps each point's distance to its nearest center as a
    running minimum, updated with the newest center only.  Each iteration
    sorts the points by label once (stably), so a cluster's members are one
    basic slice, in the order a boolean mask would gather them: its mass and
    weighted sum add the same values in the same order, with the same bits.
    """
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    probs = masses + 1e-15
    centers = [points[rng.choice(n, p=probs / probs.sum())]]
    dist = np.full(n, np.inf)
    for _ in range(1, k):
        np.minimum(dist, np.sum((points - centers[-1]) ** 2, axis=1), out=dist)
        scores = probs * dist
        if scores.sum() <= 0.0:
            centers.append(points[int(np.argmax(dist))])
            continue
        centers.append(points[rng.choice(n, p=scores / scores.sum())])
    centroids = np.stack(centers)
    labels = np.zeros(n, dtype=np.intp)
    for it in range(_KMEANS_ITERS):
        dists = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        order = np.argsort(labels, kind="stable")
        sorted_masses, sorted_points = masses[order], points[order]
        ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
        for j, (lo, hi) in enumerate(zip([0, *ends], ends)):
            mass = sorted_masses[lo:hi].sum()
            if mass > 0.0:
                centroids[j] = (sorted_masses[lo:hi, None] * sorted_points[lo:hi]).sum(0) / mass
            else:
                # re-seed an empty cluster at the point farthest from its centroid
                far = int(np.argmax(np.min(dists, axis=1)))
                centroids[j] = points[far]
    return labels


def choose_partition(
    expansion: MoeOperator,
    samples: np.ndarray,
    n_clusters: int | None = None,
    seed: int = 0,
) -> list[list[int]]:
    """Group the expanded components into at most ``n_clusters`` clusters.

    Runs mass-weighted k-means on the flattened (A, b) parameters, with
    component masses measured on the provided samples; empty clusters are
    dropped and the groups are ordered by first member.  Its bound is
    tested against the exhaustive bound minimizer, which is test code.
    """
    fitting = _fitting_set(expansion, samples)
    C = expansion.n_experts
    if n_clusters is None:
        n_clusters = expansion.gating.ops[0].n_experts
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if C <= n_clusters:
        return [[c] for c in range(C)]
    if n_clusters == 1:
        return [list(range(C))]

    feats = np.concatenate([expansion.A.reshape(C, -1), expansion.b.reshape(C, -1)], axis=1)
    masses = _component_masses(fitting)
    labels = _weighted_kmeans(feats, masses, n_clusters, seed)
    groups = [np.nonzero(labels == j)[0].tolist() for j in range(n_clusters)]
    groups = [g for g in groups if g]
    groups.sort(key=lambda g: g[0])
    return groups


def _compress(
    expansion: MoeOperator,
    samples: np.ndarray,
    n_clusters: int | None = None,
    seed: int = 0,
) -> FitResult:
    """``choose_partition`` then ``fit_cluster_student`` on one fitting set, gated once.

    This is how every command compresses an expansion: the k-means
    partition, then the affine fit of each cluster.  Both read the stage
    weights of a single gating pass over ``samples``; the result has the
    bits of the two calls made separately.
    """
    fitting = _FittingSet(expansion, samples)
    partition = choose_partition(expansion, fitting, n_clusters=n_clusters, seed=seed)
    return fit_cluster_student(expansion, partition, fitting)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int


def _mc_mean(
    values_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    sampler: NoisySampler,
    n: int,
    rng: np.random.Generator,
    chunk: int,
) -> tuple[McEstimate, ...]:
    """Mean and standard error of each per-sample series over ``n`` draws.

    ``values_fn`` maps a chunk of at most ``chunk`` samples to a tuple of
    ``(m,)`` series.  Each series is summed on its own, with its sum of
    squares, chunk by chunk; one ``McEstimate`` is returned per series.
    """
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    sums: list[list[float]] = []  # per series: [sum, sum of squares]
    for lo in range(0, n, chunk):
        series = values_fn(sampler.sample(min(chunk, n - lo), rng))
        if not sums:
            sums = [[0.0, 0.0] for _ in series]
        for acc, vals in zip(sums, series):
            acc[0] += float(np.sum(vals))
            acc[1] += float(np.sum(vals * vals))
    estimates = []
    for total, total_sq in sums:
        mean = total / n
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        estimates.append(McEstimate(mean=mean, stderr=float(np.sqrt(var / n)), n=n))
    return tuple(estimates)


def mc_distillation_loss(
    student,
    target,
    sampler: NoisySampler,
    n: int,
    seed: int = 0,
) -> McEstimate:
    """Monte-Carlo mean and standard error of ``||student(z) - target(z)||^2``.

    ``target=None`` means the chain the student's gating runs (a distilled
    student's teacher chain): each batch is then gated once, for both the
    student and the chain's output, with the bits of ``apply_chain``.
    """
    if target is None:
        if not isinstance(getattr(student, "gating", None), PathGating):
            raise ValueError("target=None needs a student gated along a chain of operators")

        def evaluate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            out, points = student.apply_along_chain(z)
            return out, points[-1]
    else:
        f_st = _as_callable(student)
        f_t = _as_callable(target)

        def evaluate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return f_st(z), f_t(z)

    widest = max(getattr(student, "n_experts", 1), getattr(target, "n_experts", 1))

    def sq_dev(z: np.ndarray) -> tuple[np.ndarray]:
        got, want = evaluate(z)
        diff = got - want
        return (np.sum(diff * diff, axis=1),)

    rng = np.random.default_rng(seed)
    return _mc_mean(sq_dev, sampler, n, rng, _chunk_size(widest))[0]


def _lipschitz_at(
    f: Callable[[np.ndarray], np.ndarray], points: np.ndarray, scale: float, rng: np.random.Generator
) -> float:
    """``max |f(p + delta) - f(p)| / |delta|`` over ``points``, ``delta ~ scale * N(0, I)``."""
    delta = scale * rng.standard_normal(points.shape)
    num = np.linalg.norm(f(points + delta) - f(points), axis=1)
    return float(np.max(num / np.linalg.norm(delta, axis=1)))


@dataclass(frozen=True)
class PropagationAudit:
    """Monte-Carlo audit of the two-stage error-propagation inequality.

    ``final <= 2*merge + 4*shift + 4*lipschitz^2*stage1`` up to three
    combined standard errors.  ``lipschitz`` is an empirical lower estimate
    of the second-stage teacher's constant, so the audited right-hand side
    may be tighter than the analytic one.
    """

    final: McEstimate
    merge: McEstimate
    shift: McEstimate
    stage1: McEstimate
    lipschitz: float
    rhs: float
    combined_stderr: float

    @property
    def holds(self) -> bool:
        return self.final.mean <= self.rhs + 3.0 * self.combined_stderr


def error_propagation_audit(
    stage1,
    stage2,
    merged,
    teacher_ops: Sequence,
    sampler: NoisySampler,
    n: int,
    seed: int = 0,
) -> PropagationAudit:
    """Estimate every term of the two-stage propagation bound on shared samples.

    ``teacher_ops`` is the full single-step chain in application order;
    it is split at ``stage1.interval`` into the two stagewise teachers.
    ``merged``'s gating must run exactly ``(stage1, stage2)``: the stage
    outputs are read off its trajectory.
    """
    ops1 = [op for op in teacher_ops if op.interval[0] >= stage1.interval[0]]
    ops2 = [op for op in teacher_ops if op.interval[0] < stage1.interval[0]]
    if not ops1 or not ops2:
        raise ValueError("teacher_ops must cover both stages")
    if (ops1[-1].interval[0], ops1[0].interval[1]) != stage1.interval:
        raise ValueError("stage1 interval does not match the teacher chain split")
    if (ops2[-1].interval[0], ops2[0].interval[1]) != stage2.interval:
        raise ValueError("stage2 interval does not match the teacher chain split")
    if merged.interval != (stage2.interval[0], stage1.interval[1]):
        raise ValueError("merged operator must cover both stages")
    gating = getattr(merged, "gating", None)
    chain = gating.ops if isinstance(gating, PathGating) else ()
    if len(chain) != 2 or chain[0] is not stage1 or chain[1] is not stage2:
        raise ValueError("merged operator's gating must run exactly (stage1, stage2)")

    def terms(z: np.ndarray) -> tuple[np.ndarray, ...]:
        merged_out, (y_student, composed) = merged.apply_along_chain(z)
        y_teacher = apply_chain(ops1, z)
        teacher_full = apply_chain(ops2, y_teacher)
        shift_ref = apply_chain(ops2, y_student)
        diffs = (
            merged_out - teacher_full,
            merged_out - composed,
            composed - shift_ref,
            y_student - y_teacher,
        )
        return tuple(np.sum(diff * diff, axis=1) for diff in diffs)

    rng = np.random.default_rng(seed)
    chunk = _chunk_size(max(getattr(merged, "n_experts", 1), 64))
    final, merge_err, shift, stage1_err = _mc_mean(terms, sampler, n, rng, chunk)

    lip = _lipschitz_at(
        lambda y: apply_chain(ops2, y),
        stage1.apply(sampler.sample(_LIPSCHITZ_PAIRS, rng)),
        _LIPSCHITZ_SCALE,
        rng,
    )

    rhs = 2.0 * merge_err.mean + 4.0 * shift.mean + 4.0 * lip * lip * stage1_err.mean
    combined = float(
        np.sqrt(
            final.stderr**2
            + (2.0 * merge_err.stderr) ** 2
            + (4.0 * shift.stderr) ** 2
            + (4.0 * lip * lip * stage1_err.stderr) ** 2
        )
    )
    return PropagationAudit(
        final=final,
        merge=merge_err,
        shift=shift,
        stage1=stage1_err,
        lipschitz=lip,
        rhs=rhs,
        combined_stderr=combined,
    )


def distill_chain(
    gmm: GaussianMixture,
    sched: NoiseSchedule,
    t_hi: int,
    t_lo: int,
    n_fit: int = 8192,
    seed: int = 0,
) -> MoeOperator:
    """Compress the teacher steps ``t_hi ... t_lo`` into one clustered student.

    Extends one step at a time: compose the current student with the next
    teacher step (a K*K expansion), cluster, refit.  Keeps the component
    count bounded regardless of horizon, which is what makes long-horizon
    stage students tractable.  Each step keeps at most ``gmm.K`` clusters,
    chosen by the greedy affine k-means.
    """
    if not 1 <= t_lo <= t_hi <= sched.T:
        raise ValueError(f"invalid step range ({t_lo}, {t_hi}) for T={sched.T}")
    sampler = NoisySampler(gmm=gmm, sched=sched, t=t_hi)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    current = single_step_moe(gmm, sched, t_hi)
    for step, t in enumerate(range(t_hi - 1, t_lo - 1, -1)):
        expansion = compose_expand([current, single_step_moe(gmm, sched, t)])
        samples = sampler.sample(n_fit, rng)
        current = _compress(
            expansion, samples, n_clusters=gmm.K, seed=seed + 7919 * (step + 1)
        ).student
    return current


def write_mixture(gmm: GaussianMixture, path: str | Path) -> None:
    """Structured-text mixture file: K, d, pi row, then per-component mu and Lambda block."""
    lines = [f"K {gmm.K}", f"d {gmm.d}"]
    lines.append("pi " + " ".join(f"{p:.17g}" for p in gmm.pi))
    for k in range(gmm.K):
        lines.append(f"component {k + 1}")
        lines.append("mu " + " ".join(f"{v:.17g}" for v in gmm.mu[k]))
        for row in gmm.cov[k]:
            lines.append("Lambda " + " ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_mixture(path: str | Path) -> GaussianMixture:
    """Parse the mixture file format written by :func:`write_mixture`.

    The format is strict.  ``K``, ``d`` and ``pi`` appear once each, before
    the first component.  Components follow numbered ``1..K`` in order, each
    a ``component`` line, then one ``mu`` row, then ``d`` ``Lambda`` rows.
    Every row holds ``d`` numbers and ``pi`` holds ``K``.  Anything else
    raises ``ValueError`` naming the line.
    """
    header: dict[str, object] = {}
    blocks: list[tuple[int, list[float] | None, list[list[float]]]] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")

        def bad(why: str) -> ValueError:
            return ValueError(f"{path}: line {lineno} ({raw.strip()!r}): {why}")

        def numbers(count: int) -> list[float]:
            try:
                vals = [float(v) for v in rest.split()]
            except ValueError:
                raise bad(f"{key} entries must be numbers") from None
            if len(vals) != count:
                raise bad(f"{key} has {len(vals)} entries, expected {count}")
            return vals

        def positive_int() -> int:
            if not rest.strip().isdigit() or int(rest) < 1:
                raise bad(f"{key} must be a positive integer")
            return int(rest)

        if key in ("K", "d", "pi"):
            if key in header:
                raise bad(f"repeated {key} line")
            if blocks:
                raise bad(f"{key} line after the first component")
            if key == "pi":
                if "K" not in header:
                    raise bad("pi line before the K line")
                header["pi"] = numbers(header["K"])
            else:
                header[key] = positive_int()
        elif key == "component":
            missing = [k for k in ("K", "d", "pi") if k not in header]
            if missing:
                raise bad(f"component before the {', '.join(missing)} line(s)")
            if blocks:
                _check_block(blocks, header["d"], path)
            if len(blocks) == header["K"]:
                raise bad(f"more than K = {header['K']} components")
            if positive_int() != len(blocks) + 1:
                raise bad(f"expected component {len(blocks) + 1}")
            blocks.append((lineno, None, []))
        elif key in ("mu", "Lambda"):
            if not blocks:
                raise bad(f"{key} row outside a component block")
            start, mu, cov = blocks[-1]
            if key == "mu":
                if mu is not None:
                    raise bad(f"second mu row in component {len(blocks)}")
                blocks[-1] = (start, numbers(header["d"]), cov)
            elif mu is None:
                raise bad(f"Lambda row before the mu row of component {len(blocks)}")
            elif len(cov) == header["d"]:
                raise bad(f"more than d = {header['d']} Lambda rows in component {len(blocks)}")
            else:
                cov.append(numbers(header["d"]))
        else:
            raise bad("unrecognized mixture file line")
    if len(header) != 3:
        raise ValueError(f"{path}: mixture file must declare K, d and pi")
    if blocks:
        _check_block(blocks, header["d"], path)
    if len(blocks) != header["K"]:
        raise ValueError(f"{path}: expected {header['K']} components, got {len(blocks)}")
    return GaussianMixture(
        pi=np.array(header["pi"]),
        mu=np.array([mu for _, mu, _ in blocks]),
        cov=np.array([cov for _, _, cov in blocks]),
    )


def _check_block(blocks: list, d: int, path) -> None:
    start, mu, cov = blocks[-1]
    if mu is None or len(cov) != d:
        raise ValueError(
            f"{path}: line {start}: component {len(blocks)} needs one mu row and "
            f"{d} Lambda rows, got {0 if mu is None else 1} and {len(cov)}"
        )
