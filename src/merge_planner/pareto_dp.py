"""Interval dynamic programming over Pareto frontiers of merged operators.

For every contiguous interval the DP keeps the set of merged operators that
are mutually non-dominated under the per-coordinate preference directions
(+1 where the variance exceeds 1, -1 otherwise).  Two candidate kinds per
interval: the one-shot direct merge of the raw single-step operators, and
every split merge of frontier items from the two sub-intervals.  Dominance
comparisons are exact double comparisons — tolerance-based pruning could
discard true optima.

Each cell keeps the batch skyline (:func:`_skyline`) of its candidates: the
one-shot merge, then the split merges by split point, left-major.  Survivors
keep candidate order and the first exact duplicate wins, as one-by-one
insertion would.  Each survivor stores a back-pointer ``(m, i, j)``
(``m == 0``: one-shot) instead of a plan; plans are built for tied roots only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear_op import (
    DiagGaussian,
    DiagOperator,
    ShrinkageProfile,
    single_step_matrix,
)
from .schedule import NoiseSchedule
from .strategy import (
    Leaf,
    MergeNode,
    MergePlan,
    OneShot,
    enumerate_plans,
    format_plan,
    plan_entries,
)

__all__ = [
    "PreferenceVector",
    "FrontierCapExceeded",
    "DpResult",
    "pareto_dp",
    "scalar_dp",
    "BruteForceResult",
    "brute_force_optimum",
    "MAX_BRUTE_FORCE_T",
    "DEFAULT_MAX_FRONTIER",
]

MAX_BRUTE_FORCE_T = 8

# default cap on one frontier: d=2 at T=64 peaks at ~1400 items, while d=4 at
# T=16 can grow past 100 000 items for minutes
DEFAULT_MAX_FRONTIER = 20_000

_CHUNK_ROWS = 1 << 14  # candidate rows materialised per skyline call
_SFS_BLOCK = 256  # rows filtered together in the d >= 3 skyline


@dataclass(frozen=True, eq=False)
class PreferenceVector:
    """Per-coordinate preference direction: +1 iff lam > 1, else -1."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=np.float64).reshape(-1).copy()
        if not np.all(np.abs(rho) == 1.0):
            raise ValueError("preference entries must be +1 or -1")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_variances(cls, data: DiagGaussian) -> "PreferenceVector":
        return cls(rho=np.where(data.lam > 1.0, 1.0, -1.0))

    @property
    def d(self) -> int:
        return self.rho.shape[0]


class FrontierCapExceeded(RuntimeError):
    """Raised when a frontier outgrows the configured hard cap.

    Truncating instead would silently void the optimality guarantee.
    """


def _skyline(signed: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows no row dominates and no earlier row equals.

    The same rows, in the same order, as inserting them one by one.  d = 1:
    the first argmax.  d = 2: sort by (-x, -y, index), keep rows whose y tops
    the running maximum.  d >= 3: sort-filter skyline; after a presort by
    (-sum, -entries lexicographically, index) no row is weakly dominated by a
    later one (float addition is monotone), so each block drops the rows
    weakly dominated by a survivor or by an earlier row of the block.
    """
    n, d = signed.shape
    if n <= 1:
        return np.arange(n)
    if d == 1:
        return np.array([np.argmax(signed[:, 0])])
    if d == 2:
        order = np.lexsort((-signed[:, 1], -signed[:, 0]))  # stable: index breaks ties
        y = signed[order, 1]
        keep = np.concatenate([[True], y[1:] > np.maximum.accumulate(y)[:-1]])
        return np.sort(order[keep])
    order = np.lexsort(np.vstack([-signed[:, ::-1].T, -signed.sum(axis=1)]))
    cols = np.ascontiguousarray(signed[order].T)  # one contiguous row per coordinate
    survivors = np.empty_like(cols)
    n_kept = 0
    kept = np.zeros(n, dtype=bool)
    for lo in range(0, n, _SFS_BLOCK):
        block = cols[:, lo : lo + _SFS_BLOCK]
        # [r, q]: survivor q (resp. earlier block row q) weakly dominates block row r
        by_survivor = block[0, :, None] <= survivors[0, None, :n_kept]
        within = np.tril(block[0, :, None] <= block[0, None, :], k=-1)
        for c in range(1, d):
            by_survivor &= block[c, :, None] <= survivors[c, None, :n_kept]
            within &= block[c, :, None] <= block[c, None, :]
        keep = ~(by_survivor.any(axis=1) | within.any(axis=1))
        kept[lo : lo + _SFS_BLOCK] = keep
        n_new = int(np.count_nonzero(keep))
        survivors[:, n_kept : n_kept + n_new] = block[:, keep]
        n_kept += n_new
    return np.sort(order[kept])


@dataclass(frozen=True)
class DpResult:
    best: DiagOperator
    plan: MergePlan | None
    objective: float
    frontier_sizes: dict[tuple[int, int], int]


def pareto_dp(
    sched: NoiseSchedule,
    data: DiagGaussian,
    shrink: ShrinkageProfile,
    surrogate: DiagOperator,
    keep_plans: bool = True,
    max_frontier_size: int | None = DEFAULT_MAX_FRONTIER,
) -> DpResult:
    """Optimal operator merging by Pareto dynamic programming.

    Fills ``S[t,t] = {A_t}``, then for lengths 2..T and every start time
    keeps the non-dominated candidates among the direct one-shot merge and
    every split merge of frontier items.  The returned operator minimizes
    the squared Wasserstein objective against ``surrogate`` over ``S[1,T]``;
    exact-objective ties are broken by the lexicographically smallest
    serialized plan.  A frontier larger than ``max_frontier_size`` raises
    :class:`FrontierCapExceeded`; ``None`` removes the cap.
    """
    T, d = sched.T, data.d
    if surrogate.d != d:
        raise ValueError("surrogate dimension does not match data")
    if shrink.T != T or shrink.d != d:
        raise ValueError("shrinkage profile does not match schedule/data")
    rho = PreferenceVector.from_variances(data).rho
    single = single_step_matrix(sched, data)

    # entries[(t1, t2)]: frontier rows in candidate order; for t1 < t2,
    # back[(t1, t2)][k] = (m, i, j): row k merges entries[(t1, m)][i] with
    # entries[(m + 1, t2)][j], or is the one-shot merge when m == 0
    entries: dict[tuple[int, int], np.ndarray] = {}
    back: dict[tuple[int, int], np.ndarray] = {}
    prods: dict[int, np.ndarray] = {}  # prods[t1]: product of single steps t1..t2
    for t in range(1, T + 1):
        entries[(t, t)] = single[t - 1 : t].copy()
        prods[t] = single[t - 1].copy()

    for length in range(2, T + 1):
        for t1 in range(1, T - length + 2):
            t2 = t1 + length - 1
            g = shrink.gamma_at(t2)
            one_minus_g = 1.0 - g
            prods[t1] = prods[t1] * single[t2 - 1]
            rows = (one_minus_g * prods[t1] + g * single[t2 - 1])[None, :]
            ptrs = np.zeros((1, 3), dtype=np.intp)
            pending: list[np.ndarray] = []
            splits: list[tuple[int, int, int]] = []  # (first pending row, m, n_right)
            n_pending = 0
            for m in range(t1, t2):
                left, right = entries[(t1, m)], entries[(m + 1, t2)]
                # all split merges of this m at once, in left-major order
                merged = one_minus_g * (left[:, None, :] * right[None, :, :]) + g * right
                pending.append(merged.reshape(-1, d))
                splits.append((n_pending, m, len(right)))
                n_pending += len(pending[-1])
                if n_pending < _CHUNK_ROWS and m < t2 - 1:
                    continue
                # skyline([survivors so far, chunk]) = skyline(all candidates so far)
                rows = np.concatenate([rows, *pending])
                keep = _skyline(rows * rho)
                new = keep[keep >= len(ptrs)] - len(ptrs)
                first, ms, n_right = np.array(splits).T
                s = np.searchsorted(first, new, side="right") - 1
                i, j = np.divmod(new - first[s], n_right[s])
                new_ptrs = np.column_stack([ms[s], i, j])
                ptrs = np.concatenate([ptrs[keep[keep < len(ptrs)]], new_ptrs])
                rows = rows[keep]
                pending, splits, n_pending = [], [], 0

            if max_frontier_size is not None and len(rows) > max_frontier_size:
                raise FrontierCapExceeded(
                    f"frontier for interval ({t1},{t2}) has {len(rows)} items "
                    f"(cap {max_frontier_size}); raise the cap or reduce d"
                )
            entries[(t1, t2)] = rows
            back[(t1, t2)] = ptrs

    root = entries[(1, T)]
    objectives = np.array(
        [float(np.dot(surrogate.entries - e, surrogate.entries - e)) for e in root]
    )
    best_obj = float(np.min(objectives))
    tied = np.nonzero(objectives == best_obj)[0]
    plans = {int(k): _build_plan(back, 1, T, int(k)) for k in tied} if keep_plans else {}
    idx = min(plans, key=lambda k: format_plan(plans[k])) if len(plans) > 1 else int(tied[0])
    return DpResult(
        best=DiagOperator(entries=root[idx], interval=(1, T)),
        plan=plans.get(idx),
        objective=best_obj,
        frontier_sizes={iv: len(rows) for iv, rows in entries.items()},
    )


def scalar_dp(single: np.ndarray, gamma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Root entries of ``n`` independent d = 1 DPs, one per column.

    ``single`` and ``gamma`` are ``(T, n)`` matrices (row ``t-1`` holds step
    ``t``), as from :func:`single_step_matrix` and ``shrinkage(...).gamma``;
    ``rho`` is the ``(n,)`` preference vector.  At d = 1 every frontier holds
    exactly one item, so each cell keeps one value.  The loop runs over
    interval lengths only; start times and columns are vectorized.

    Bit-identity contract: entry ``k`` equals ``pareto_dp(...).best.entries``
    for column ``k`` alone, bit for bit.  Candidates come in ``pareto_dp``
    order (the one-shot merge, then the splits by ascending ``m``), with the
    same arithmetic, ``(1-g)*prod + g*single[t2]`` and
    ``(1-g)*(left*right) + g*right``, the one-shot product extended by one
    step per length.  The survivor is the candidate with the largest
    ``candidate * rho``, as in :func:`_skyline` at d = 1, and it is read back
    as ``max(candidate * rho) * rho``.  With ``rho`` = ±1 both products are
    exact, and the entries are nonnegative (never -0.0), so tied maxima have
    the same bits and the kept entry is the one ``_skyline`` keeps.
    """
    T, n = single.shape
    value = np.empty((T, T, n))  # value[t1-1, t2-1]: the entry kept for (t1, t2)
    steps = np.arange(T)
    value[steps, steps] = single
    prods = single  # prods[t1-1]: product of single steps t1..t2
    for length in range(2, T + 1):
        starts = steps[: T - length + 1]
        ends = starts + (length - 1)
        g = gamma[ends]
        one_minus_g = 1.0 - g
        prods = prods[:-1] * single[ends]
        one_shot = one_minus_g * prods + g * single[ends]
        left_len = np.arange(1, length)[:, None]  # split m = t1 + left_len - 1
        left = value[starts, starts + left_len - 1]
        right = value[starts + left_len, ends]
        merged = one_minus_g * (left * right) + g * right
        cand = np.concatenate([one_shot[None], merged])
        value[starts, ends] = np.max(cand * rho, axis=0) * rho
    return value[0, T - 1]


def _build_plan(back: dict, t1: int, t2: int, k: int) -> MergePlan:
    """The plan of row ``k`` of the frontier of ``(t1, t2)``, from back-pointers."""
    if t1 == t2:
        return Leaf(t1)
    m, i, j = (int(v) for v in back[(t1, t2)][k])
    if m == 0:
        return OneShot(t1, t2)
    return MergeNode(_build_plan(back, t1, m, i), _build_plan(back, m + 1, t2, j))


@dataclass(frozen=True)
class BruteForceResult:
    best: DiagOperator
    plan: MergePlan
    objective: float


def brute_force_optimum(
    sched: NoiseSchedule,
    data: DiagGaussian,
    shrink: ShrinkageProfile,
    surrogate: DiagOperator,
) -> BruteForceResult:
    """Exhaustive minimum over every enumerated plan shape.

    Independent oracle for the DP: evaluates all plans directly and never
    prunes.  Each plan is scored with :func:`plan_entries` over one
    single-step matrix and the arithmetic of :func:`w2_objective`.  Ties are
    broken by the lexicographically smallest serialized plan.  Guarded to
    small T.
    """
    T = sched.T
    if T > MAX_BRUTE_FORCE_T:
        raise ValueError(f"brute force is limited to T <= {MAX_BRUTE_FORCE_T}, got {T}")
    if surrogate.d != data.d or surrogate.interval != (1, T):
        raise ValueError("surrogate does not match data/schedule")
    if shrink.T != T or shrink.d != data.d:
        raise ValueError("shrinkage profile does not match schedule/data")
    single = single_step_matrix(sched, data)
    best_plan: MergePlan | None = None
    best_entries: np.ndarray | None = None
    best_obj = np.inf
    for plan in enumerate_plans(T):
        entries = plan_entries(plan, single, shrink.gamma)
        diff = surrogate.entries - entries
        obj = float(np.dot(diff, diff))
        # plans are serialized only to break exact ties
        if obj < best_obj or (obj == best_obj and format_plan(plan) < format_plan(best_plan)):
            best_plan, best_entries, best_obj = plan, entries, obj
    assert best_plan is not None and best_entries is not None
    return BruteForceResult(
        best=DiagOperator(entries=best_entries, interval=(1, T)),
        plan=best_plan,
        objective=float(best_obj),
    )
