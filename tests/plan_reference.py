"""Test-side references: plan-object enumeration and its count, object merges, the
object-loop oracle and the sort-filter skyline.

The library evaluates plans on arrays (``plan_entries``), finds the
brute-force optimum by one bottom-up array enumeration and prunes DP cells
with one divide-and-conquer skyline.  The code here is the object-per-node
form and the block filter those replaced, kept as the bit-identity
references the tests compare against.  ``count_plans`` is the plan-count
recurrence the enumeration is checked against.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from merge_planner.linear_op import (
    DiagGaussian,
    DiagOperator,
    ShrinkageProfile,
    _check_interval,
    _interval_product,
    single_step_matrix,
    single_step_operator,
)
from merge_planner.pareto_dp import BruteForceResult
from merge_planner.schedule import NoiseSchedule
from merge_planner.strategy import (
    Leaf,
    MergeNode,
    MergePlan,
    OneShot,
    format_plan,
    plan_entries,
)

MAX_ENUMERATION_T = 12
_SFS_BLOCK = 256  # rows filtered together in the sort-filter skyline


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
    g = shrink.gamma[t2 - 1]
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
    g = shrink.gamma[t2 - 1]
    prod = _interval_product(single, t1, t2)
    entries = (1.0 - g) * prod + g * single[t2 - 1]
    return DiagOperator(entries=entries, interval=(t1, t2))


def count_plans(T: int) -> int:
    """Number of distinct plan shapes: ``C(1) = 1``, ``C(L) = 1 + sum_m C(m) * C(L - m)``."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    counts = [0, 1]
    for length in range(2, T + 1):
        counts.append(
            1 + sum(counts[m] * counts[length - m] for m in range(1, length))
        )
    return counts[T]


def enumerate_plans(T: int) -> Iterator[MergePlan]:
    """Yield every distinct plan shape over ``(1, T)``.

    For each interval either a one-shot node or, for every split point, each
    pair of recursively enumerated children.  The count obeys
    ``C(1) = 1``, ``C(L) = 1 + sum_m C(m) * C(L - m)``; guarded to T <= 12
    against combinatorial blowup.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if T > MAX_ENUMERATION_T:
        raise ValueError(
            f"plan enumeration is limited to T <= {MAX_ENUMERATION_T}, got {T}"
        )
    yield from _enumerated_interval(1, T)


@functools.lru_cache(maxsize=None)
def _enumerated_interval(t1: int, t2: int) -> tuple[MergePlan, ...]:
    # memoized: sub-interval plan lists are shared between enclosing plans
    return tuple(_generate_interval(t1, t2))


def _generate_interval(t1: int, t2: int) -> Iterator[MergePlan]:
    if t1 == t2:
        yield Leaf(t1)
        return
    yield OneShot(t1, t2)
    for m in range(t1, t2):
        for left in _enumerated_interval(t1, m):
            for right in _enumerated_interval(m + 1, t2):
                yield MergeNode(left, right)


def object_brute_force_optimum(
    sched: NoiseSchedule,
    data: DiagGaussian,
    shrink: ShrinkageProfile,
    surrogate: DiagOperator,
) -> BruteForceResult:
    """``brute_force_optimum`` as one loop over the plan objects of :func:`enumerate_plans`.

    Each plan is scored with :func:`plan_entries` over one single-step
    matrix and the arithmetic of ``w2_objective``; ties go to the
    lexicographically smallest serialized plan.
    """
    T = sched.T
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


def _sort_filter_skyline(signed: np.ndarray) -> np.ndarray:
    """The library's ``_skyline`` for any d >= 2, by sort-filter skyline.

    After a presort by (-sum, -entries lexicographically, index) no row is
    weakly dominated by a later one (float addition is monotone), so each
    block drops the rows weakly dominated by a survivor or by an earlier row
    of the block.
    """
    n, d = signed.shape
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
