"""Machine-speed calibration for timing on a shared host.

On a shared machine the speed of one core drifts by up to 1.8x within
minutes as other tenants come and go, and code slows by different amounts
depending on what it spends its time on.  ``calibrate`` times four fixed
kernels, one per kind of work the benchmarked program does: small NumPy
operations, broadcast comparisons on medium arrays (Pareto pruning), pure
Python dictionary work, and batched affine maps with reductions (mixture
gating).  A workload names the kernels whose slowdown tracks its own; their
geometric mean, taken just before and after an item, says how slowly the
machine ran the item.  The kernels never change, so a change to the program
cannot move them.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(20261017)
_SMALL = np.arange(64, dtype=np.float64)
_FRONTIER = _rng.random((300, 4))
_CANDIDATES = _rng.random((40, 4))
_POINTS = _rng.random((2048, 2))
_MAP = _rng.random((2, 2))


def _small_ops() -> None:
    acc = 0.0
    for i in range(1000):
        acc += float((_SMALL * 1.0001 + i).sum()) + sum(range(16))


def _broadcast_compare() -> None:
    for _ in range(8):
        (_FRONTIER[:, None, :] >= _CANDIDATES[None, :, :]).all(axis=2).any(axis=1)


def _python_dict() -> None:
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + i


def _affine_reduce() -> None:
    for _ in range(60):
        y = _POINTS @ _MAP
        np.sum(y * y / 1.3, axis=1)
        np.exp(y)


# kernel -> its time on the 2-vCPU box the benchmark was defined on (10th
# percentile of 60 runs); a calibration is a ratio to these, so 1 means
# "as fast as that box when quiet"
KERNELS = {
    "small_ops": (_small_ops, 0.0035),
    "broadcast_compare": (_broadcast_compare, 0.0048),
    "python_dict": (_python_dict, 0.0034),
    "affine_reduce": (_affine_reduce, 0.0034),
}


def calibrate(kernels=tuple(KERNELS)) -> float:
    """Geometric mean over ``kernels`` of run time / reference time: the machine's slowness."""
    log_sum = 0.0
    for name in kernels:
        kernel, reference = KERNELS[name]
        start = time.perf_counter()
        kernel()
        log_sum += math.log((time.perf_counter() - start) / reference)
    return math.exp(log_sum / len(kernels))
