"""Test-side references: replaced forms of the moments, solve and k-means, and the partition oracle.

The library's ``_cluster_moments`` reads each chunk's weights
component-major, every cluster's as a block of rows, forms each cluster's
expert outputs inside its cluster loop, and writes out the matmuls
``np.einsum(..., optimize=True)`` runs.  ``cluster_moments`` here is the
form that replaced: the expert outputs of the whole expansion per chunk,
then per cluster fancy gathers of the sample-major arrays and the optimized
einsum on them, with each chunk's weights taken from the public
``expansion.gating.weights``, not from the fitting set.  It is kept as the
bit-identity reference the tests compare against.

``solve_normal`` solves the normal equations through SciPy's checked
``cho_factor``/``cho_solve`` wrappers, and ``weighted_kmeans`` is the
k-means that recomputed the distances to every chosen center while seeding
and gathered each cluster with a boolean mask.  The library's
``_solve_normal`` and ``_weighted_kmeans`` call the LAPACK routines directly
and read sorted slices; these are the forms they replaced, kept as their
bit-identity references.

Every command partitions the expanded components with the library's
greedy mass-weighted k-means (``choose_partition``).
``exhaustive_partition`` enumerates every partition instead and returns
the one with the least bound; it is the oracle the greedy bound is held to.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from merge_planner.gmm import (
    _KMEANS_ITERS,
    _RIDGE,
    _cluster_moments,
    _fitting_set,
    _rowsum,
    _solve_normal,
)

# the exhaustive search's tie tolerance, as a fraction of the zero student's
# bound; rounding moved bounds by about 1e-16 of it
_PARTITION_TIE_RTOL = 1e-12


def cluster_moments(fitting, groups: Sequence[np.ndarray]):
    """``(H, R, qfull, cquad)`` of each group, as ``gmm._cluster_moments`` defines them."""
    d = fitting.samples.shape[1]
    expansion = fitting.expansion
    K = len(groups)
    H = np.zeros((K, d + 1, d + 1))
    R = np.zeros((K, d, d + 1))
    qfull = np.zeros(K)
    cquad = np.zeros(K)

    for z, _ in fitting.weights():  # only for the chunk boundaries
        w = expansion.gating.weights(z)  # (m, C), sample-major
        m = z.shape[0]
        u = np.concatenate([z, np.ones((m, 1))], axis=1)
        g = np.einsum("cij,mj->mci", expansion.A, z, optimize=True) + expansion.b
        gsq = _rowsum(g * g)  # (m, C)
        for k, idx in enumerate(groups):
            if idx.size == 0:
                continue
            # the fancy gather returns column-major strides (8, 8 m); ``np.sum``
            # of ``wk * gsq[:, idx]`` adds in that memory order
            wk = w[:, idx]
            Wk = np.sum(wk, axis=1)  # (m,)
            Sk = np.einsum("mc,mci->mi", wk, g[:, idx, :], optimize=True)
            H[k] += np.einsum("m,mi,mj->ij", Wk, u, u, optimize=True)
            R[k] += Sk.T @ u
            qfull[k] += float(np.sum(wk * gsq[:, idx]))
            pos = Wk > 0.0
            cquad[k] += float(np.sum(np.sum(Sk[pos] ** 2, axis=1) / Wk[pos]))
    return H, R, qfull, cquad


def solve_normal(H: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(M, ridged)`` as ``gmm._solve_normal`` defines them, through the checked wrappers."""
    from scipy.linalg import cho_factor, cho_solve

    try:
        factor = cho_factor(H)
        ridged = False
    except np.linalg.LinAlgError:
        factor = cho_factor(H + _RIDGE * np.eye(H.shape[0]))
        ridged = True
    return cho_solve(factor, R.T).T, ridged


def weighted_kmeans(
    points: np.ndarray, masses: np.ndarray, k: int, seed: int, reseeded: list | None = None
) -> np.ndarray:
    """The labels of ``gmm._weighted_kmeans``; appends each re-seeded cluster to ``reseeded``."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    probs = masses + 1e-15
    centers = [points[rng.choice(n, p=probs / probs.sum())]]
    for _ in range(1, k):
        dist = np.min(
            np.stack([np.sum((points - c) ** 2, axis=1) for c in centers]), axis=0
        )
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
        for j in range(k):
            mask = labels == j
            mass = masses[mask].sum()
            if mass > 0.0:
                centroids[j] = (masses[mask, None] * points[mask]).sum(0) / mass
            else:
                # re-seed an empty cluster at the point farthest from its centroid
                far = int(np.argmax(np.min(dists, axis=1)))
                centroids[j] = points[far]
                if reseeded is not None:
                    reseeded.append(j)
    return labels


def exhaustive_partition(expansion, samples, n_clusters: int) -> list[list[int]]:
    """The partition into at most ``n_clusters`` groups with the least bound.

    Guarded to <= 9 components and <= 3 clusters.  A bound is a sum of
    ``q - tr(M R)`` terms that add up to about the zero student's bound
    ``q.sum()``, so its rounding scales with that sum: bounds within
    ``_PARTITION_TIE_RTOL * q.sum()`` of the least are tied, and the
    lexicographically smallest partition (sorted groups, ordered by first
    member, as enumerated) wins, as the DP breaks ties by the smallest plan.
    """
    C = expansion.n_experts
    if C > 9 or n_clusters > 3:
        raise ValueError(
            "exhaustive partition search is guarded to <= 9 components and <= 3 clusters"
        )
    # the moments are additive over cluster members: compute them once per
    # component and sum them per candidate group
    fitting = _fitting_set(expansion, samples)
    H, R, q, _ = _cluster_moments(fitting, [np.array([c]) for c in range(C)])
    partitions = list(restricted_partitions(C, n_clusters))
    bounds = np.array([_partition_bound(H, R, q, partition) for partition in partitions])
    tied = np.flatnonzero(bounds <= bounds.min() + _PARTITION_TIE_RTOL * q.sum())
    return min(partitions[i] for i in tied)


def restricted_partitions(n: int, max_blocks: int):
    """All set partitions of range(n) into at most ``max_blocks`` blocks."""

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _partition_bound(H: np.ndarray, R: np.ndarray, q: np.ndarray, partition) -> float:
    """The bound of ``partition`` from per-component moments, summed group by group."""
    bound = 0.0
    for group in partition:
        Rk = R[group].sum(axis=0)
        M, _ = _solve_normal(H[group].sum(axis=0), Rk)
        bound += q[group].sum() - float(np.sum(M * Rk))
    return bound
