"""Interval dynamic programming over Pareto frontiers of merged operators.

For every contiguous interval the DP keeps the set of merged operators that
are mutually non-dominated under the per-coordinate preference directions
(+1 where the variance exceeds 1, -1 otherwise).  Two candidate kinds per
interval: the one-shot direct merge of the raw single-step operators, and
every split merge of frontier items from the two sub-intervals.  Dominance
comparisons are exact double comparisons — tolerance-based pruning could
discard true optima.

Each cell keeps the batch skyline (:func:`_skyline`, one divide-and-conquer
routine for every d >= 2) of its candidates: the one-shot merge, then the
split merges by split point, left-major.  Survivors keep candidate order and
the first exact duplicate wins, as one-by-one insertion would.  Each survivor
stores a back-pointer ``(m, i, j)`` (``m == 0``: one-shot) instead of a plan;
tied roots are serialized from back-pointers and only the chosen plan is
built.  The loop makes one candidate pass per interval length, over the
cells of that length together (:func:`_interval_dp`), and one skyline call
per group of candidates judges every cell part in it, each on its own rows.
The brute-force oracle runs the same interval loop, keeping every candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .linear_op import (
    DiagGaussian,
    DiagOperator,
    ShrinkageProfile,
    single_step_matrix,
)
from .schedule import NoiseSchedule
from .strategy import MergePlan, parse_plan

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

MAX_BRUTE_FORCE_T = 11

# default cap on one frontier: d=2 at T=64 peaks at ~1400 items, while d=4 at
# T=16 (lambda = (2, 0.5, 1.1, 0.9), s = 3.2) grows to 128 237 items, and
# with the cap lifted takes 25 s and peaks at 119 MB RSS on one 2-vCPU core
DEFAULT_MAX_FRONTIER = 20_000

_CHUNK_ROWS = 1 << 14  # a candidate group ends at the first block that reaches this many rows
_LEAF_ROWS = 256  # rows compared pairwise at the bottom of the skyline recursion


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


def _skyline(signed: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Ascending indices of the rows no row of their cell dominates and no earlier one equals.

    The cells are the row ranges that begin at ``starts`` (ascending, the
    first 0, none empty; ``None``: one cell).  In each cell, the same rows in
    the same order as inserting them one by one.  d = 1: the first argmax.
    d >= 2: after a sort by (-x0, -x1, ..., index), a row that dominates a
    row, or equals it at a smaller index, sorts before it, and every earlier
    row has x0 at least as large.  So a row is dropped exactly when some
    earlier row of its cell is >= on columns 1..d-1 (:func:`_pruned`).  Each
    cell is ordered by ``argsort(-x0)``; only the rows of exact x0 ties in a
    cell, taken in index order, are re-sorted by one stable ``lexsort``.
    """
    n, d = signed.shape
    if n == 0:
        return np.arange(0)
    starts = np.zeros(1, dtype=np.intp) if starts is None else np.asarray(starts, dtype=np.intp)
    stops = np.append(starts[1:], n)
    cells = list(zip(starts.tolist(), stops.tolist()))
    if d == 1:
        return np.array([lo + np.argmax(signed[lo:hi, 0]) for lo, hi in cells])
    neg = -signed[:, 0]
    order = np.empty(n, dtype=np.intp)
    for lo, hi in cells:
        order[lo:hi] = np.argsort(neg[lo:hi])
        order[lo:hi] += lo
    key = neg[order]
    tie = key[1:] == key[:-1]  # tie[p]: sorted rows p and p+1 share x0
    tie[stops[:-1] - 1] = False  # rows of two cells are never compared
    if tie.any():
        runs = np.flatnonzero(np.append(tie, False) | np.insert(tie, 0, False))
        idx = np.sort(order[runs])  # index order, so the stable lexsort breaks ties by index
        cell = starts.searchsorted(idx, side="right")
        order[runs] = idx[np.lexsort((*(-signed[idx, ::-1].T), cell))]
    rest = np.ascontiguousarray(signed[order, 1:].T)  # one contiguous row per coordinate
    dropped = np.empty(n, dtype=bool)
    for lo, hi in cells:
        dropped[lo:hi] = _pruned(rest[:, lo:hi])
    return np.sort(order[~dropped])


def _pruned(rest: np.ndarray) -> np.ndarray:
    """Mask of the columns of ``rest`` that some earlier column is >= on every row.

    One row: the running maximum.  Up to ``_LEAF_ROWS`` columns: every pair.
    Otherwise (Kung, Luccio & Preparata, JACM 1975; Bentley, CACM 1980) the
    second half is tested against the first half's kept columns only, and
    only its columns that pass recurse: by transitivity, both steps drop the
    same columns as testing against every earlier column.
    """
    k, n = rest.shape
    if k == 1:
        y = rest[0]
        out = np.zeros(n, dtype=bool)
        out[1:] = y[1:] <= np.maximum.accumulate(y[:-1])
        return out
    if n <= _LEAF_ROWS:
        earlier = np.arange(n)
        out = earlier[:, None] > earlier  # [r, q]: column q comes before column r
        for row in rest:
            out &= row[:, None] <= row
        return out.any(axis=1)
    half = n // 2
    head = _pruned(rest[:, :half])
    out = np.ones(n, dtype=bool)
    out[:half] = head
    tail = half + np.flatnonzero(~_dominated(rest[:, half:], rest[:, :half][:, ~head]))
    out[tail] = _pruned(rest[:, tail])
    return out


def _dominated(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mask of the columns of ``q`` that some column of ``p`` is >= on every row.

    Two rows: a binary search into ``p`` sorted by its first row, with a
    suffix maximum of its second.  Few pairs, or one column of ``p``: every
    pair.  Otherwise ``p`` is split at the median of its first row: queries
    above the split can only be covered by the high half, and the others are
    tested against the high half on the other rows, then against the low half.
    """
    k, m = q.shape
    size = p.shape[1]
    if k == 2:
        order = np.argsort(p[0])
        top = np.append(np.maximum.accumulate(p[1, order[::-1]])[::-1], -np.inf)
        return top[np.searchsorted(p[0, order], q[0])] >= q[1]
    if size < 2 or m * size <= _LEAF_ROWS * _LEAF_ROWS:
        out = q[0, :, None] <= p[0]
        for c in range(1, k):
            out &= q[c, :, None] <= p[c]
        return out.any(axis=1)
    half = size // 2
    order = np.argpartition(p[0], half)
    low, high = p[:, order[:half]], p[:, order[half:]]
    above = q[0] > p[0, order[half]]
    out = np.empty(m, dtype=bool)
    out[above] = _dominated(q[:, above], high)
    below = np.flatnonzero(~above)
    out[below] = _dominated(q[1:, below], high[1:])
    free = below[~out[below]]
    out[free] = _dominated(q[:, free], low)
    return out


@dataclass(frozen=True)
class DpResult:
    best: DiagOperator
    plan: MergePlan
    objective: float
    frontier_sizes: dict[tuple[int, int], int]


def pareto_dp(
    sched: NoiseSchedule,
    data: DiagGaussian,
    shrink: ShrinkageProfile,
    surrogate: DiagOperator,
    max_frontier_size: int | None = DEFAULT_MAX_FRONTIER,
) -> DpResult:
    """Optimal operator merging by Pareto dynamic programming.

    Fills ``S[t,t] = {A_t}``, then for lengths 2..T and every start time
    keeps the non-dominated candidates among the direct one-shot merge and
    every split merge of frontier items.  The returned operator minimizes
    the squared Wasserstein objective against ``surrogate`` over ``S[1,T]``.
    Exact-objective ties go to the lexicographically smallest serialized plan
    among the root frontier's survivors only.  An exact duplicate keeps its
    first candidate, so at an equal objective the plan can differ from
    :func:`brute_force_optimum`'s: at T = 2 the split merge duplicates the
    one-shot merge, and the DP returns ``(1:2 oneshot)`` where the oracle
    returns ``((1:1)(2:2))``.  A frontier larger than ``max_frontier_size`` raises
    :class:`FrontierCapExceeded`; ``None`` removes the cap.  A ``surrogate``
    of another dimension or interval than ``(1, T)`` raises ``ValueError``.
    """
    rho = PreferenceVector.from_variances(data).rho

    def keep(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return _skyline(rows * rho, starts)

    return _interval_dp(sched, data, shrink, surrogate, keep, max_frontier_size)


def _interval_dp(
    sched: NoiseSchedule,
    data: DiagGaussian,
    shrink: ShrinkageProfile,
    surrogate: DiagOperator,
    keep: Callable[[np.ndarray, np.ndarray], np.ndarray],
    max_frontier_size: int | None,
) -> DpResult:
    """The interval loop of :func:`pareto_dp` and :func:`brute_force_optimum`.

    One candidate pass per interval length, as in :func:`scalar_dp`.  A
    *block* is one ``(cell, a)``: ``a = 0`` the one-shot merge, ``a >= 1``
    the split ``m = t1 + a - 1`` (left part of length ``a``).  Blocks come
    in candidate order, cell after cell, and in a cell the one-shot merge,
    then the splits by ascending ``m``, left-major.  A *group* of
    consecutive blocks ends at the first block that brings it to
    ``_CHUNK_ROWS`` rows, or at the last block of the length; its rows are
    gathered from one array of the shorter frontiers, one index per block
    and left row, never per candidate.  ``keep(rows, starts)`` is called
    once per group.  ``rows`` is ``[survivors the group's first cell carried
    from the last group, the group's rows]`` and ``starts`` the first row of
    each cell part (0 for the first); it returns the ascending indices it
    keeps, each cell judged on its own rows only.  Groups are exact when
    ``keep`` of ``[kept rows of a prefix, next rows]`` keeps the rows
    ``keep`` of ``prefix + next rows`` keeps, as the skyline and keep-all
    do.  The kept rows and their back-pointers are gathered once per group
    and cut into cells.  The cap is checked as each cell ends, in cell
    order.  Every root row is scored with the arithmetic of
    :func:`w2_objective` (:func:`_squared_norms`), and exact ties go to
    :func:`_smallest_plan`.
    """
    T, d = sched.T, data.d
    if surrogate.d != d or surrogate.interval != (1, T):
        raise ValueError("surrogate does not match data/schedule")
    if shrink.T != T or shrink.d != d:
        raise ValueError("shrinkage profile does not match schedule/data")
    single = single_step_matrix(sched, data)
    gamma = shrink.gamma
    one_minus_gamma = 1.0 - gamma

    # the frontiers of lengths 1..T-1, length-major in one array; by_start[:,
    # L-1, t1-1] and by_end[:, L-1, t2-1] hold (first row, size) of the cell
    # of length L, as in scalar_dp.  back[(t1, t2)][k] = (m, i, j): row k
    # merges row i of (t1, m) with row j of (m + 1, t2), or is the one-shot
    # merge when m == 0
    rows = single.copy()
    by_start = np.zeros((2, T, T), dtype=np.intp)
    by_end = np.zeros((2, T, T), dtype=np.intp)
    by_start[0, 0] = by_end[0, 0] = np.arange(T)
    by_start[1, 0] = by_end[1, 0] = 1
    back: dict[tuple[int, int], np.ndarray] = {}
    sizes = {(t, t): 1 for t in range(1, T + 1)}
    prods = single.copy()  # prods[t1-1]: product of single steps t1..t2
    root = rows
    for length in range(2, T + 1):
        k = T - length + 1
        np.multiply(prods[:k], single[length - 1 :], out=prods[:k])
        g, one_minus_g = gamma[length - 1 :], one_minus_gamma[length - 1 :]
        oneshot = one_minus_g * prods[:k] + g * single[length - 1 :]
        # block (c, a) of cell c: a = 0 the one-shot merge (one dummy row),
        # a >= 1 the splits m = c + a, left part of length a; (first, size)
        left = np.zeros((2, k, length), dtype=np.intp)
        right = np.zeros((2, k, length), dtype=np.intp)
        left[1, :, 0] = right[1, :, 0] = 1
        left[:, :, 1:] = by_start[:, : length - 1, :k].transpose(0, 2, 1)
        right[:, :, 1:] = by_end[:, length - 2 :: -1, length - 1 :].transpose(0, 2, 1)
        ms = np.arange(k)[:, None] + np.arange(length)
        ms[:, 0] = 0
        left_first, n_left = left.reshape(2, -1)
        right_first, n_right = right.reshape(2, -1)
        ms = ms.reshape(-1)
        ends = np.cumsum(n_left * n_right)
        n_blocks = len(ends)
        ends = ends.tolist()
        frontiers: list[np.ndarray] = []
        carry = None  # (rows, pointers) kept so far of a cell that spans groups
        b0 = 0
        while b0 < n_blocks:
            base = ends[b0 - 1] if b0 else 0
            b1 = min(bisect_left(ends, base + _CHUNK_ROWS, b0) + 1, n_blocks)
            # one segment per block and left row: its rows pair that left row
            # with every right row, at positions seg_first.. of the group
            nl = n_left[b0:b1]
            seg_len = np.repeat(n_right[b0:b1], nl)
            seg_first = np.cumsum(seg_len) - seg_len
            seg_i = np.arange(len(seg_len)) - np.repeat(np.cumsum(nl) - nl, nl)
            # (m, i, -first) per segment: a row's pointer adds (0, 0, its position)
            seg = np.column_stack([np.repeat(ms[b0:b1], nl), seg_i, -seg_first])
            # x, y: the left and right row of each candidate of the group
            x = rows.take(np.repeat(left_first[b0:b1], nl) + seg_i, axis=0).repeat(seg_len, axis=0)
            shift = np.repeat(np.repeat(right_first[b0:b1], nl) - seg_first, seg_len)
            y = rows.take(np.arange(len(shift)) + shift, axis=0)
            cells = range(b0 // length, (b1 - 1) // length + 1)
            n_old = 0 if carry is None else len(carry[0])
            starts = []  # the first row of each cell part; carried rows join the first
            for c in cells:
                lo, hi = max(b0, c * length), min(b1, (c + 1) * length)
                p0, p1 = (ends[lo - 1] if lo else 0) - base, ends[hi - 1] - base
                starts.append(p0 + n_old if starts else 0)
                # the bits of (1-g)*(left*right) + g*right
                cell, r = x[p0:p1], y[p0:p1]
                cell *= r
                cell *= one_minus_g[c]
                r *= g[c]
                cell += r
                if lo == c * length:
                    cell[0] = oneshot[c]
            cand = x if carry is None else np.concatenate([carry[0], x])
            starts = np.array(starts)
            kept = keep(cand, starts)
            split = kept.searchsorted(n_old)  # ascending: carried rows first
            new = kept[split:] - n_old
            ptrs = seg.take(seg_first.searchsorted(new, side="right") - 1, axis=0)
            ptrs[:, 2] += new
            if len(kept) < len(cand):
                # np.take copies rows about 3x faster than fancy indexing
                cand = np.take(cand, kept, axis=0)
                if carry is not None:
                    ptrs = np.concatenate([np.take(carry[1], kept[:split], axis=0), ptrs])
            elif carry is not None:  # every row kept: kept is the identity
                ptrs = np.concatenate([carry[1], ptrs])
            cuts = [*kept.searchsorted(starts).tolist(), len(kept)]
            carry = None
            for c, i0, i1 in zip(cells, cuts, cuts[1:]):
                front, front_ptrs = cand[i0:i1], ptrs[i0:i1]
                if b1 < (c + 1) * length:
                    carry = (front, front_ptrs)
                    break
                if max_frontier_size is not None and len(front) > max_frontier_size:
                    raise FrontierCapExceeded(
                        f"frontier for interval ({c + 1},{c + length}) has {len(front)} items "
                        f"(cap {max_frontier_size}); the CLI and config files cannot change "
                        "the cap: use a smaller d or T, or call "
                        "pareto_dp(max_frontier_size=...) from Python"
                    )
                # a copy: a view would keep the group's whole pointer array alive,
                # with the stale pointers of a cell carried to the next group
                back[(c + 1, c + length)] = front_ptrs.copy()
                sizes[(c + 1, c + length)] = len(front)
                frontiers.append(front)
            b0 = b1
        if length == T:
            root = frontiers[0]
            break
        n = np.array([len(f) for f in frontiers])
        by_start[:, length - 1, :k] = len(rows) + np.cumsum(n) - n, n
        by_end[:, length - 1, length - 1 :] = by_start[:, length - 1, :k]
        rows = np.concatenate([rows, *frontiers])

    objectives = _squared_norms(surrogate.entries - root)
    best_obj = float(np.min(objectives))
    idx, plan = _smallest_plan(back, T, np.flatnonzero(objectives == best_obj))
    return DpResult(
        best=DiagOperator(entries=root[idx], interval=(1, T)),
        plan=plan,
        objective=best_obj,
        frontier_sizes=sizes,
    )


def _squared_norms(diff: np.ndarray) -> np.ndarray:
    """``float(row.dot(row))`` of every row, bit for bit.

    A stacked ``(1, d) @ (d, 1)`` matmul runs the dot routine of ``np.dot``
    on each row; a sum of squares such as ``einsum("ij,ij->i")`` rounds
    differently at d >= 2.
    """
    return np.matmul(diff[:, None, :], diff[:, :, None]).reshape(-1)


def scalar_dp(single: np.ndarray, gamma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Root entries of ``n`` independent d = 1 DPs, one per column.

    ``single`` and ``gamma`` are ``(T, n)`` matrices (row ``t-1`` holds step
    ``t``), as from :func:`single_step_matrix` and ``shrinkage(...).gamma``;
    ``rho`` is the ``(n,)`` preference vector.  At d = 1 every frontier holds
    exactly one item, so each cell keeps one value.  The loop runs over
    interval lengths only; start times and columns are vectorized.

    The kept values live in two length-major tables: ``by_start[L-1, t1-1]``
    for the length-``L`` interval that starts at ``t1`` and ``by_end[L-1,
    t2-1]`` for the one that ends at ``t2``.  For length ``L`` and ``k = T -
    L + 1`` intervals, the left parts of the splits are ``by_start[:L-1,
    :k]`` (lengths 1..L-1), the right parts ``by_end[L-2::-1, L-1:]``
    (lengths L-1..1) and the shrinkage ``gamma[L-1:]``, so every operand is a
    basic slice and every result goes into a preallocated buffer.

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
    by_start = np.empty((T, T, n))
    by_end = np.empty((T, T, n))
    by_start[0] = by_end[0] = single
    one_minus_gamma = 1.0 - gamma
    prods = single.copy()  # prods[t1-1]: product of single steps t1..t2
    cand = np.empty((T, T, n))  # cand[:L, :k]: the candidates of length L
    scaled = np.empty((T, T, n))  # scaled[:L, :k]: the g * right terms
    for length in range(2, T + 1):
        k = T - length + 1  # intervals of this length; ends run from `length` to T
        g, one_minus_g = gamma[length - 1 :], one_minus_gamma[length - 1 :]
        last = single[length - 1 :]
        c, s = cand[:length, :k], scaled[:length, :k]
        np.multiply(prods[:k], last, out=prods[:k])
        np.multiply(one_minus_g, prods[:k], out=c[0])
        np.multiply(g, last, out=s[0])
        # split m = t1 + a - 1 for a = 1..length-1: left has length a, right length-a
        left = by_start[: length - 1, :k]
        right = by_end[length - 2 :: -1, length - 1 :]
        np.multiply(left, right, out=c[1:])
        np.multiply(one_minus_g, c[1:], out=c[1:])
        np.multiply(g, right, out=s[1:])
        np.add(c, s, out=c)
        np.multiply(c, rho, out=c)
        kept = by_start[length - 1, :k]
        np.maximum.reduce(c, axis=0, out=kept)
        np.multiply(kept, rho, out=kept)
        by_end[length - 1, length - 1 :] = kept
    return by_start[T - 1, 0]


def _smallest_plan(back: dict, T: int, roots: np.ndarray) -> tuple[int, MergePlan]:
    """The first root row among ``roots`` whose plan serializes smallest, and that plan.

    Only the chosen plan is built (by ``parse_plan``): with ``s_train = 0``
    every plan ties.
    """
    memo: dict[tuple[int, int, int], str] = {}
    idx = min((int(k) for k in roots), key=lambda k: _plan_text(back, memo, 1, T, k))
    return idx, parse_plan(_plan_text(back, memo, 1, T, idx))


def _plan_text(back: dict, memo: dict, t1: int, t2: int, k: int) -> str:
    """Memoized ``format_plan`` of row ``k`` of the ``(t1, t2)`` frontier, from back-pointers."""
    if t1 == t2:
        return f"({t1}:{t1})"
    if (t1, t2, k) not in memo:
        m, i, j = (int(v) for v in back[(t1, t2)][k])
        if m == 0:
            memo[(t1, t2, k)] = f"({t1}:{t2} oneshot)"
        else:
            left = _plan_text(back, memo, t1, m, i)
            memo[(t1, t2, k)] = f"({left}{_plan_text(back, memo, m + 1, t2, j)})"
    return memo[(t1, t2, k)]


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
    """Exhaustive minimum over every plan shape.

    Oracle for the DP: the DP's interval loop with a keep-all step, so every
    interval holds the entries of all its plans, in plan enumeration order,
    with :func:`pareto_dp`'s arithmetic and back-pointers.  Every root row is
    scored, and exact ties go to the lexicographically smallest serialized
    plan over all plans (:func:`_smallest_plan`).  ``TestArrayOracle`` holds
    it to an independent object loop over plans bit for bit.  Guarded to
    ``T <= MAX_BRUTE_FORCE_T``.
    """
    if sched.T > MAX_BRUTE_FORCE_T:
        raise ValueError(f"brute force is limited to T <= {MAX_BRUTE_FORCE_T}, got {sched.T}")
    every = _interval_dp(
        sched, data, shrink, surrogate, lambda rows, starts: np.arange(len(rows)), None
    )
    return BruteForceResult(best=every.best, plan=every.plan, objective=every.objective)
