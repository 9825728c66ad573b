"""Test-side reference: the gather-loop cluster moments.

The library's ``_cluster_moments`` reads each chunk's weights
component-major, every cluster's as a block of rows, forms each cluster's
expert outputs inside its cluster loop, and writes out the matmuls
``np.einsum(..., optimize=True)`` runs.  The code here is the form that
replaced: the expert outputs of the whole expansion per chunk, then per
cluster fancy gathers of the sample-major arrays and the optimized einsum
on them, with each chunk's weights taken from the public
``expansion.gating.weights``, not from the fitting set.  It is kept as the
bit-identity reference the tests compare against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from merge_planner.gmm import _rowsum


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
