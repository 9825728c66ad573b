import importlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merge_planner.linear_op import (
    DiagGaussian,
    DiagOperator,
    critical_variance,
    shrinkage,
    single_step_matrix,
    surrogate_target,
    w2_objective,
)
from merge_planner.pareto_dp import (
    DEFAULT_MAX_FRONTIER,
    FrontierCapExceeded,
    MAX_BRUTE_FORCE_T,
    PreferenceVector,
    brute_force_optimum,
    pareto_dp,
    scalar_dp,
    _skyline,
    _squared_norms,
)
from merge_planner.schedule import NoiseSchedule, make_cosine_schedule, validate_schedule
from merge_planner.strategy import (
    evaluate_plan,
    format_plan,
    plan_progressive,
    plan_sequential_boot,
    plan_sequential_consistency,
    plan_vanilla,
)
from plan_reference import _sort_filter_skyline


dp_module = importlib.import_module("merge_planner.pareto_dp")

# deterministic example generation and no example database: tier-1 reruns stay reproducible
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def _skyline_oracle(signed):
    """O(n^2) reference: keep row k unless a row dominates it or an earlier row equals it."""
    kept = []
    for k, row in enumerate(signed):
        dominated = any(
            np.all(other >= row) and np.any(other > row) for other in signed
        )
        repeated = any(np.array_equal(other, row) for other in signed[:k])
        if not (dominated or repeated):
            kept.append(k)
    return kept


@st.composite
def signed_rows(draw):
    """(n, d) arrays from a small value pool, so ties, duplicates and -0.0 are common."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(0, 40))
    pool = st.sampled_from([-1.5, -0.25, -0.0, 0.0, 0.5, 1.0, 2.0])
    fine = st.floats(-2.0, 2.0, allow_nan=False)
    values = draw(st.lists(st.one_of(pool, fine), min_size=n * d, max_size=n * d))
    return np.array(values, dtype=np.float64).reshape(n, d)


def _random_schedule(draw, T):
    """A valid, non-cosine schedule: alpha falls from 1 to 0 in random steps."""
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T))
    alpha = 1.0 - np.cumsum(steps) / np.sum(steps)
    alpha[-1] = 0.0
    alpha = np.concatenate([[1.0], alpha])
    return NoiseSchedule(alpha=alpha, sigma=np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha)))


@st.composite
def celled_integer_rows(draw):
    """(n, d) integer-valued rows and ascending cell starts (the first 0, no cell empty)."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 60))
    values = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
    signed = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else set()
    return signed, np.array([0, *sorted(cuts)])


@st.composite
def dp_problems(draw):
    """A random valid, non-cosine schedule with T <= 8, data and training time."""
    sched = _random_schedule(draw, draw(st.integers(1, 8)))
    d = draw(st.integers(1, 3))
    lam = draw(
        st.lists(
            st.one_of(st.sampled_from([0.5, 0.95, 1.0, 1.05, 3.0]), st.floats(0.1, 4.0)),
            min_size=d,
            max_size=d,
        )
    )
    s_train = draw(st.sampled_from([0.0, 1.6, 6.4, 20.0]))
    return sched, DiagGaussian(lam), s_train


@st.composite
def sweep_problems(draw):
    """A random valid schedule with T <= 24, a lambda grid and a training time.

    The grid draws from a pool holding 1.0 and values just below, at and
    above the critical variance, so duplicates and both phases are common.
    """
    sched = _random_schedule(draw, draw(st.integers(1, 24)))
    crit = max(critical_variance(sched)[0], 0.1)
    pool = st.sampled_from(
        [1.0, 0.5, np.nextafter(crit, 0.0), crit, np.nextafter(crit, np.inf), 2.0 * crit]
    )
    lams = draw(st.lists(st.one_of(pool, st.floats(0.05, 20.0)), min_size=1, max_size=5))
    return sched, lams, draw(st.floats(0.0, 10.0))


class TestPreferenceVector:
    def test_from_variances(self):
        rho = PreferenceVector.from_variances(DiagGaussian([5.0, 1.0, 0.2]))
        np.testing.assert_array_equal(rho.rho, [1.0, -1.0, -1.0])

    def test_boundary_lam_equal_one_prefers_smaller(self):
        rho = PreferenceVector.from_variances(DiagGaussian([1.0]))
        assert rho.rho[0] == -1.0

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            PreferenceVector(rho=np.array([1.0, 0.5]))


def _dominates(a, b, rho):
    """``a`` dominates ``b`` under ``rho``: the skyline of ``[b, a]`` keeps only ``a``.

    ``b`` comes first, so an exact duplicate keeps ``b`` and never counts.
    """
    return _skyline(rho * np.array([b, a], dtype=np.float64)).tolist() == [1]


def _frontier(rows, rho):
    """The rows a DP cell keeps from ``rows``, in their original order."""
    rows = np.array(rows, dtype=np.float64).reshape(len(rows), len(rho))
    return rows[_skyline(rho * rows)]


class TestDominates:
    def test_equal_operators_do_not_dominate(self):
        rho = np.array([1.0, -1.0])
        assert not _dominates([0.5, 0.5], [0.5, 0.5], rho)

    def test_scalar_prefer_larger(self):
        rho = np.array([1.0])
        assert _dominates([0.9], [0.8], rho)
        assert not _dominates([0.8], [0.9], rho)

    def test_mixed_preferences_block_dominance(self):
        rho = np.array([1.0, -1.0])
        b, c = [0.9, 0.5], [0.8, 0.4]
        assert not _dominates(b, c, rho)
        assert not _dominates(c, b, rho)


class TestInsertAndPrune:
    """A DP cell's frontier after each candidate arrives, under ``rho = (+1, -1)``."""

    rho = np.array([1.0, -1.0])

    def test_empty_insert(self):
        assert len(_frontier([[0.5, 0.5]], self.rho)) == 1

    def test_dominated_candidate_discarded(self):
        kept = _frontier([[0.9, 0.4], [0.8, 0.5]], self.rho)  # second is worse on both
        np.testing.assert_array_equal(kept, [[0.9, 0.4]])

    def test_dominating_candidate_sweeps(self):
        rows = [[0.7, 0.7], [0.6, 0.5], [0.8, 0.4]]
        assert len(_frontier(rows[:2], self.rho)) == 2  # incomparable pair
        np.testing.assert_array_equal(_frontier(rows, self.rho), [[0.8, 0.4]])  # beats both

    def test_incomparable_accumulate(self):
        assert len(_frontier([[0.9, 0.9], [0.5, 0.5]], self.rho)) == 2

    def test_exact_duplicate_discarded(self):
        assert len(_frontier([[0.5, 0.5], [0.5, 0.5]], self.rho)) == 1

    def test_frontier_soundness_random(self):
        rng = np.random.default_rng(31)
        rho = np.array([1.0, -1.0, 1.0])
        rows = rng.uniform(0, 2, size=(300, 3))
        kept = _frontier(rows, rho)
        assert len(kept) > 0
        for i, b in enumerate(kept):
            for j, c in enumerate(kept):
                if i != j:
                    assert not _dominates(b, c, rho)


# (seed, n, grid step) of the skylines checked against the sort-filter reference
_SORT_FILTER_CASES = [(0, 5000, 1 / 8), (1, 4000, 1 / 256), (2, 1500, 1 / 4)]


def _assert_matches_sort_filter(monkeypatch, leaf, seed, n, step, d):
    """The skyline against the sort-filter reference, at sizes the O(n^2) oracle cannot reach.

    Rows near the hyperplane where the coordinates sum to 0 give large
    skylines; rounding them to a grid gives ties, and some rows are exact
    copies or carry -0.0.
    """
    rng = np.random.default_rng(seed)
    signed = rng.normal(size=(n, d))
    signed = np.round((signed - signed.mean(axis=1, keepdims=True)) / step) * step
    copies = rng.random(n) < 0.1
    signed[copies] = signed[rng.integers(0, n, np.count_nonzero(copies))]
    signed[(signed == 0.0) & (rng.random(signed.shape) < 0.5)] = -0.0
    expected = _sort_filter_skyline(signed).tolist()
    if leaf is not None:
        monkeypatch.setattr(dp_module, "_LEAF_ROWS", leaf)
    assert n // dp_module._LEAF_ROWS >= 2  # the recursion splits
    assert _skyline(signed).tolist() == expected


class TestSkyline:
    """The pruning primitive behind every DP cell, on rows already signed by ``rho``."""

    def test_empty_and_single(self):
        assert _skyline(np.empty((0, 3))).tolist() == []
        assert _skyline(np.array([[0.3, 0.2]])).tolist() == [0]

    def test_scalar_first_maximum(self):
        assert _skyline(np.array([[0.1], [0.7], [0.2], [0.7]])).tolist() == [1]

    def test_two_dim_order_and_first_duplicate(self):
        signed = np.array([[0.5, 0.1], [0.2, 0.9], [0.5, 0.1], [0.1, 0.1], [0.6, 0.0]])
        assert _skyline(signed).tolist() == [0, 1, 4]
        # mixed preferences: (0.9, 0.5) and (0.8, 0.4) are incomparable under
        # rho = (+1, -1), though the first is larger in both entries
        rho = np.array([1.0, -1.0])
        assert _skyline(rho * np.array([[0.9, 0.5], [0.8, 0.4]])).tolist() == [0, 1]

    def test_later_row_sweeps_earlier(self):
        signed = np.array([[0.1, 0.1, 0.1], [0.2, 0.0, 0.3], [0.2, 0.1, 0.3]])
        assert _skyline(signed).tolist() == [2]
        # d = 2 under mixed preferences: the last row beats two incomparable rows
        rho = np.array([1.0, -1.0])
        entries = np.array([[0.7, 0.7], [0.6, 0.5], [0.8, 0.4]])
        assert _skyline(rho * entries[:2]).tolist() == [0, 1]
        assert _skyline(rho * entries).tolist() == [2]

    def test_signed_zeros_are_duplicates(self):
        signed = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]])
        assert _skyline(signed).tolist() == [0]

    @PROPERTY_SETTINGS
    @given(signed_rows())
    def test_matches_quadratic_oracle(self, signed):
        expected = _skyline_oracle(signed)
        assert _skyline(signed).tolist() == expected
        # tiny leaves, so both halves of the recursion and the median splits run
        for leaf in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dp_module, "_LEAF_ROWS", leaf)
                assert _skyline(signed).tolist() == expected

    @PROPERTY_SETTINGS
    @given(celled_integer_rows())
    def test_cells_match_quadratic_oracle_per_cell(self, case):
        signed, starts = case
        stops = [*starts[1:], len(signed)]
        expected = [lo + k for lo, hi in zip(starts, stops) for k in _skyline_oracle(signed[lo:hi])]
        for leaf in (None, 2):
            with pytest.MonkeyPatch.context() as mp:
                if leaf is not None:
                    mp.setattr(dp_module, "_LEAF_ROWS", leaf)
                assert _skyline(signed, starts).tolist() == expected

    def test_quicksort_ties_out_of_index_order(self):
        # argsort(-x0) need not keep tied rows in index order (NumPy 2.4 puts
        # row 6 before row 4 here); rows 4 and 6 are equal and beat every
        # other row, so the first of them, 4, is the one survivor
        signed = np.column_stack([np.tile([1.0, 0.0], 10), np.zeros(20)])
        signed[[4, 6], 1] = 1.0
        assert _skyline(signed).tolist() == [4]
        assert _skyline(signed, np.array([0, 3])).tolist() == [0, 4]

    def test_last_leaf_of_one_row(self, monkeypatch):
        # sorted by x descending; with 3-row leaves the last row is in the second half
        signed = np.array([[3.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert _skyline(signed).tolist() == [0, 3]
        monkeypatch.setattr(dp_module, "_LEAF_ROWS", 3)
        assert _skyline(signed).tolist() == [0, 3]

    @pytest.mark.parametrize("leaf", [None, 3])
    @pytest.mark.parametrize(
        "seed, n, step",
        [pytest.param(*case, id="-".join(map(str, case))) for case in _SORT_FILTER_CASES],
    )
    def test_three_dim_skyline_matches_sort_filter(self, monkeypatch, leaf, seed, n, step):
        _assert_matches_sort_filter(monkeypatch, leaf, seed, n, step, 3)

    @pytest.mark.parametrize("leaf", [None, 3])
    @pytest.mark.parametrize(
        "seed, n, step, d",
        [
            pytest.param(*case, d, id="-".join(map(str, case)) + f"-d{d}")
            for d in (4, 5)
            for case in _SORT_FILTER_CASES
        ],
    )
    def test_large_skyline_matches_sort_filter(self, monkeypatch, leaf, seed, n, step, d):
        _assert_matches_sort_filter(monkeypatch, leaf, seed, n, step, d)


class TestSquaredNorms:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_per_row_dot_bitwise(self, d):
        rng = np.random.default_rng(d)
        diff = rng.normal(size=(5000, d)) * rng.choice([1e-8, 1e-3, 1.0, 1e3], size=(5000, 1))
        expected = np.array([float(row.dot(row)) for row in diff])
        assert _squared_norms(diff).tobytes() == expected.tobytes()


class TestMergeMapMonotonicity:
    def test_strictly_increasing_in_both_arguments(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            x, y = rng.uniform(0.01, 3.0, size=2)
            g = rng.uniform(0.01, 0.99)
            dx, dy = rng.uniform(1e-4, 0.1, size=2)
            f = (1 - g) * x * y + g * y
            assert (1 - g) * (x + dx) * y + g * y > f
            assert (1 - g) * x * (y + dy) + g * (y + dy) > f


def _assert_rejects_mismatched_inputs(solve):
    sched = make_cosine_schedule(4)
    data = DiagGaussian([1.05, 0.95])
    shrink = shrinkage(sched, data, 6.4)
    surr = surrogate_target(sched, data)
    with pytest.raises(ValueError, match="surrogate does not match"):
        solve(sched, data, shrink, surrogate_target(sched, DiagGaussian([1.0])))
    # the right dimension, but the target of another interval
    with pytest.raises(ValueError, match="surrogate does not match"):
        solve(sched, data, shrink, DiagOperator(surr.entries, (1, 3)))
    with pytest.raises(ValueError, match="shrinkage profile does not match"):
        solve(sched, data, shrinkage(make_cosine_schedule(5), data, 6.4), surr)


class TestParetoDp:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(61)
        for T in (2, 3, 4, 5, 6):
            sched = make_cosine_schedule(T)
            for d in (1, 2, 3):
                for s in (1.6, 3.2, 6.4):
                    lam = 2.0 * (1.0 - rng.random(d))
                    data = DiagGaussian(lam)
                    shrink = shrinkage(sched, data, s)
                    surr = surrogate_target(sched, data)
                    dp = pareto_dp(sched, data, shrink, surr)
                    bf = brute_force_optimum(sched, data, shrink, surr)
                    assert abs(dp.objective - bf.objective) <= 1e-12

    def test_returned_plan_reproduces_objective(self):
        sched = make_cosine_schedule(6)
        data = DiagGaussian([1.05, 0.95])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        dp = pareto_dp(sched, data, shrink, surr)
        replayed = evaluate_plan(dp.plan, sched, data, shrink)
        assert w2_objective(replayed, surr) == pytest.approx(dp.objective, abs=1e-15)

    def test_scalar_frontier_collapse(self):
        sched = make_cosine_schedule(8)
        data = DiagGaussian([0.6])
        shrink = shrinkage(sched, data, 3.2)
        surr = surrogate_target(sched, data)
        dp = pareto_dp(sched, data, shrink, surr)
        assert all(size == 1 for size in dp.frontier_sizes.values())

    def test_frontier_sizes_cover_all_intervals(self):
        sched = make_cosine_schedule(5)
        data = DiagGaussian([1.05, 0.95])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        dp = pareto_dp(sched, data, shrink, surr)
        expected = {(t1, t2) for t1 in range(1, 6) for t2 in range(t1, 6)}
        assert set(dp.frontier_sizes) == expected

    def test_never_worse_than_canonical(self):
        sched = make_cosine_schedule(16)
        for lam in np.geomspace(0.2, 5.0, 9):
            data = DiagGaussian([lam])
            shrink = shrinkage(sched, data, 6.4)
            surr = surrogate_target(sched, data)
            dp = pareto_dp(sched, data, shrink, surr)
            for plan in (
                plan_vanilla(16),
                plan_progressive(16),
                plan_sequential_boot(16),
                plan_sequential_consistency(16),
            ):
                obj = w2_objective(evaluate_plan(plan, sched, data, shrink), surr)
                assert dp.objective <= obj + 1e-12

    def test_rejects_mismatched_inputs(self):
        _assert_rejects_mismatched_inputs(pareto_dp)

    def test_frontier_cap_aborts(self):
        sched = make_cosine_schedule(8)
        data = DiagGaussian([1.05, 0.95])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        uncapped = pareto_dp(sched, data, shrink, surr)
        assert max(uncapped.frontier_sizes.values()) > 3
        # the error names the first interval, by length then start, over the cap
        for cap, message in [
            (1, "frontier for interval (1,3) has 3 items (cap 1)"),
            (3, "frontier for interval (1,4) has 7 items (cap 3)"),
        ]:
            with pytest.raises(FrontierCapExceeded, match="^" + re.escape(message)):
                pareto_dp(sched, data, shrink, surr, max_frontier_size=cap)

    def test_default_cap_stops_four_dim_growth(self):
        sched = make_cosine_schedule(16)
        data = DiagGaussian([2.0, 0.5, 1.1, 0.9])
        shrink = shrinkage(sched, data, 3.2)
        surr = surrogate_target(sched, data)
        message = f"frontier for interval (2,14) has 22601 items (cap {DEFAULT_MAX_FRONTIER})"
        with pytest.raises(FrontierCapExceeded, match="^" + re.escape(message)):
            pareto_dp(sched, data, shrink, surr)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunking_does_not_change_result(self, monkeypatch, chunk):
        sched = make_cosine_schedule(9)
        data = DiagGaussian([1.08, 0.95, 3.0])
        shrink = shrinkage(sched, data, 6.4)
        # shifted targets make different frontier rows optimal, so plans are
        # rebuilt through back-pointers of many splits and groups
        targets = [
            DiagOperator(entries=surrogate_target(sched, data).entries * f, interval=(1, 9))
            for f in ([1.0, 1.0, 1.0], [0.5, 1.5, 0.9], [2.0, 0.3, 1.1], [0.2, 0.2, 3.0])
        ]
        whole = [pareto_dp(sched, data, shrink, t) for t in targets]
        oracle = brute_force_optimum(sched, data, shrink, targets[1])
        # chunk 1: one skyline call per split; 7 and 64: groups that span
        # cells and cells that carry survivors into the next group; tiny
        # skyline leaves throughout
        monkeypatch.setattr(dp_module, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(dp_module, "_LEAF_ROWS", 5)
        for target, ref in zip(targets, whole):
            chunked = pareto_dp(sched, data, shrink, target)
            assert chunked.frontier_sizes == ref.frontier_sizes
            assert format_plan(chunked.plan) == format_plan(ref.plan)
            assert chunked.objective == ref.objective
            assert chunked.best.entries.tobytes() == ref.best.entries.tobytes()
            replayed = evaluate_plan(chunked.plan, sched, data, shrink)
            np.testing.assert_allclose(replayed.entries, chunked.best.entries, rtol=1e-12)
        chunked = brute_force_optimum(sched, data, shrink, targets[1])
        assert format_plan(chunked.plan) == format_plan(oracle.plan)
        assert chunked.objective == oracle.objective
        assert chunked.best.entries.tobytes() == oracle.best.entries.tobytes()

    @settings(PROPERTY_SETTINGS, max_examples=30)
    @given(dp_problems())
    def test_oracle_equivalence_random_schedules(self, problem):
        sched, data, s_train = problem
        assert validate_schedule(sched).ok
        shrink = shrinkage(sched, data, s_train)
        surr = surrogate_target(sched, data)
        dp = pareto_dp(sched, data, shrink, surr)
        bf = brute_force_optimum(sched, data, shrink, surr)
        assert abs(dp.objective - bf.objective) <= 1e-12 * max(1.0, bf.objective)
        replayed = evaluate_plan(dp.plan, sched, data, shrink)
        assert w2_objective(replayed, surr) == pytest.approx(dp.objective, abs=1e-12)
        # the plan rebuilt from back-pointers replays its row bit for bit, so
        # the pointer remap of pruned (dp) and kept-all (bf) cells is exact
        for result in (dp, bf):
            replayed = evaluate_plan(result.plan, sched, data, shrink)
            assert replayed.entries.tobytes() == result.best.entries.tobytes()
            assert w2_objective(replayed, surr) == result.objective

    @settings(PROPERTY_SETTINGS, max_examples=30)
    @given(sweep_problems())
    def test_scalar_dp_matches_pareto_dp_bitwise(self, problem):
        sched, lams, s_train = problem
        assert validate_schedule(sched).ok
        data = DiagGaussian(lams)
        shrink = shrinkage(sched, data, s_train)
        rho = PreferenceVector.from_variances(data).rho
        roots = scalar_dp(single_step_matrix(sched, data), shrink.gamma, rho)
        surr = surrogate_target(sched, data).entries
        for k, lam in enumerate(data.lam):
            one = DiagGaussian([lam])
            dp = pareto_dp(
                sched, one, shrinkage(sched, one, s_train), surrogate_target(sched, one)
            )
            assert roots[k : k + 1].tobytes() == dp.best.entries.tobytes()
            diff = surr[k] - roots[k]
            assert (diff * diff).tobytes() == np.float64(dp.objective).tobytes()

    @pytest.mark.parametrize("s_train", [0.0, 6.4])
    @pytest.mark.parametrize("T", [1, 2, 32, 64])
    def test_scalar_dp_matches_pareto_dp_bitwise_long_schedules(self, T, s_train):
        # past the T <= 24 of the property test, up to the sweep's T = 64;
        # pareto_dp takes about 0.5 s per column at T = 64, so there only the
        # column just above the critical variance is checked against it
        sched = make_cosine_schedule(T)
        crit = max(critical_variance(sched)[0], 0.1)
        lams = [np.nextafter(crit, np.inf), crit, np.nextafter(crit, 0.0), 1.0]
        data = DiagGaussian(lams)
        rho = PreferenceVector.from_variances(data).rho
        roots = scalar_dp(single_step_matrix(sched, data), shrinkage(sched, data, s_train).gamma, rho)
        for k, lam in enumerate(data.lam[: 1 if T == 64 else None]):
            one = DiagGaussian([lam])
            dp = pareto_dp(
                sched, one, shrinkage(sched, one, s_train), surrogate_target(sched, one)
            )
            assert roots[k : k + 1].tobytes() == dp.best.entries.tobytes()

    def test_deterministic_output(self):
        sched = make_cosine_schedule(7)
        data = DiagGaussian([1.08, 0.97])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        a = pareto_dp(sched, data, shrink, surr)
        b = pareto_dp(sched, data, shrink, surr)
        assert a.objective == b.objective
        assert format_plan(a.plan) == format_plan(b.plan)
        np.testing.assert_array_equal(a.best.entries, b.best.entries)

    def test_zero_training_time_freezes_to_final_step(self):
        # gamma = 1 everywhere: every merge returns its right block, so every
        # plan collapses to the final single-step operator
        sched = make_cosine_schedule(6)
        data = DiagGaussian([0.5])
        shrink = shrinkage(sched, data, 0.0)
        surr = surrogate_target(sched, data)
        dp = pareto_dp(sched, data, shrink, surr)
        final_step = sched.sigma[5]
        assert dp.best.entries[0] == final_step
        assert dp.objective == pytest.approx(
            (surr.entries[0] - final_step) ** 2, abs=1e-15
        )


class TestBruteForce:
    def test_t1_single_leaf(self):
        sched = make_cosine_schedule(1)
        data = DiagGaussian([0.5])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        bf = brute_force_optimum(sched, data, shrink, surr)
        assert format_plan(bf.plan) == "(1:1)"

    def test_t2_common_value(self):
        sched = make_cosine_schedule(2)
        data = DiagGaussian([0.5])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        bf = brute_force_optimum(sched, data, shrink, surr)
        dp = pareto_dp(sched, data, shrink, surr)
        assert bf.objective == dp.objective
        # ties broken by the lexicographically smallest serialization
        assert format_plan(bf.plan) == "((1:1)(2:2))"

    @pytest.mark.parametrize("T, lam", [(2, [0.5]), (6, [1.08, 0.95, 1.3]), (8, [1.08, 0.95, 1.3])])
    def test_dp_breaks_ties_among_root_survivors_only(self, T, lam):
        # the split ((1:1)(2:2)) duplicates (1:2 oneshot) exactly, so the DP
        # keeps the one-shot merge, which serializes after the split
        sched = make_cosine_schedule(T)
        data = DiagGaussian(lam)
        shrink = shrinkage(sched, data, 3.2)
        surr = surrogate_target(sched, data)
        dp = pareto_dp(sched, data, shrink, surr)
        bf = brute_force_optimum(sched, data, shrink, surr)
        assert dp.objective == bf.objective
        assert dp.best.entries.tobytes() == bf.best.entries.tobytes()
        bf_text = format_plan(bf.plan)
        assert bf_text.count("((1:1)(2:2))") == 1
        assert format_plan(dp.plan) == bf_text.replace("((1:1)(2:2))", "(1:2 oneshot)")

    def test_mixed_two_dim_matches_dp(self):
        sched = make_cosine_schedule(4)
        data = DiagGaussian([1.05, 0.95])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        bf = brute_force_optimum(sched, data, shrink, surr)
        dp = pareto_dp(sched, data, shrink, surr)
        assert bf.objective == dp.objective

    def test_rejects_mismatched_inputs(self):
        _assert_rejects_mismatched_inputs(brute_force_optimum)

    def test_guard(self):
        sched = make_cosine_schedule(MAX_BRUTE_FORCE_T + 1)
        data = DiagGaussian([1.0])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        with pytest.raises(ValueError, match="limited"):
            brute_force_optimum(sched, data, shrink, surr)
