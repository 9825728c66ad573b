import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from merge_planner.linear_op import (
    DiagGaussian,
    ShrinkageProfile,
    shrinkage,
    single_step_matrix,
    single_step_operator,
    surrogate_target,
    w2_objective,
)
from merge_planner.pareto_dp import brute_force_optimum, pareto_dp
from merge_planner.schedule import NoiseSchedule, make_cosine_schedule
from merge_planner.strategy import (
    Leaf,
    MergeNode,
    OneShot,
    PlanLabel,
    evaluate_plan,
    format_plan,
    internal_nodes,
    parse_plan,
    plan_entries,
    plan_label,
    plan_progressive,
    plan_sequential_boot,
    plan_sequential_consistency,
    plan_vanilla,
)

from plan_reference import (
    count_plans,
    direct_merge,
    enumerate_plans,
    merge,
    object_brute_force_optimum,
)


class TestCanonicalPlans:
    def test_vanilla_shapes(self):
        assert plan_vanilla(1) == Leaf(1)
        assert plan_vanilla(3) == OneShot(1, 3)

    def test_progressive_t4(self):
        plan = plan_progressive(4)
        assert plan == MergeNode(
            MergeNode(Leaf(1), Leaf(2)), MergeNode(Leaf(3), Leaf(4))
        )

    def test_progressive_depth_is_log2(self):
        for T in (1, 2, 4, 8, 16):
            plan = plan_progressive(T)
            depths = [d for _, d in internal_nodes(plan)]
            assert (max(depths) + 1 if depths else 0) == int(np.log2(T))

    def test_progressive_rejects_ragged(self):
        for T in (3, 5, 6, 7, 12):
            with pytest.raises(ValueError, match="power-of-two"):
                plan_progressive(T)

    def test_boot_t3_structure(self):
        plan = plan_sequential_boot(3)
        assert plan == MergeNode(Leaf(1), MergeNode(Leaf(2), Leaf(3)))

    def test_boot_right_children_end_at_T(self):
        plan = plan_sequential_boot(7)
        for node, _ in internal_nodes(plan):
            if isinstance(node, MergeNode):
                assert node.right.interval[1] == 7
                assert isinstance(node.left, Leaf)

    def test_consistency_t3_structure(self):
        plan = plan_sequential_consistency(3)
        assert plan == MergeNode(MergeNode(Leaf(1), Leaf(2)), Leaf(3))

    def test_single_step_plans_coincide(self):
        assert plan_sequential_boot(1) == Leaf(1)
        assert plan_sequential_consistency(1) == Leaf(1)
        assert plan_progressive(1) == Leaf(1)

    def test_labels(self):
        assert plan_label(plan_vanilla(5)) == PlanLabel.VANILLA
        assert plan_label(plan_progressive(8)) == PlanLabel.PROGRESSIVE
        assert plan_label(plan_sequential_boot(5)) == PlanLabel.SEQUENTIAL_BOOT
        assert (
            plan_label(plan_sequential_consistency(5))
            == PlanLabel.SEQUENTIAL_CONSISTENCY
        )
        custom = MergeNode(OneShot(1, 3), Leaf(4))
        assert plan_label(custom) == PlanLabel.CUSTOM


class TestPlanStructure:
    def test_merge_node_requires_adjacency(self):
        with pytest.raises(ValueError, match="adjacent"):
            MergeNode(Leaf(1), Leaf(3))

    def test_oneshot_requires_width(self):
        with pytest.raises(ValueError):
            OneShot(3, 3)

    def test_intervals(self):
        plan = MergeNode(Leaf(2), MergeNode(Leaf(3), Leaf(4)))
        assert plan.interval == (2, 4)

    def test_merge_node_identity_ignores_stored_interval(self):
        # the interval is computed once at construction, but equality, hash
        # and repr still see only the two children
        a = MergeNode(Leaf(1), MergeNode(Leaf(2), Leaf(3)))
        b = MergeNode(Leaf(1), MergeNode(Leaf(2), Leaf(3)))
        assert a == b and not (a != b)
        assert hash(a) == hash(b) == hash((a.left, a.right))
        assert a != MergeNode(MergeNode(Leaf(1), Leaf(2)), Leaf(3))
        assert repr(a) == (
            "MergeNode(left=Leaf(t=1), right=MergeNode(left=Leaf(t=2), right=Leaf(t=3)))"
        )
        assert len({a, b, plan_sequential_consistency(3)}) == 2
        with pytest.raises(TypeError):
            MergeNode(Leaf(1), Leaf(2), interval=(1, 2))
        with pytest.raises(ValueError, match=r"not adjacent: \(1, 2\) then \(4, 4\)"):
            MergeNode(MergeNode(Leaf(1), Leaf(2)), Leaf(4))


class TestEvaluatePlan:
    def test_vanilla_equals_direct_merge(self):
        sched = make_cosine_schedule(8)
        data = DiagGaussian([0.7, 1.4])
        shrink = shrinkage(sched, data, 3.2)
        out = evaluate_plan(plan_vanilla(8), sched, data, shrink)
        ref = direct_merge(sched, data, shrink, 1, 8)
        np.testing.assert_array_equal(out.entries, ref.entries)

    def test_root_interval_enforced(self):
        sched = make_cosine_schedule(4)
        data = DiagGaussian([1.0])
        shrink = shrinkage(sched, data, 1.0)
        with pytest.raises(ValueError, match="plan covers"):
            evaluate_plan(plan_vanilla(3), sched, data, shrink)

    def test_outputs_nonnegative_root_full(self):
        sched = make_cosine_schedule(5)
        data = DiagGaussian([0.1, 2.5])
        shrink = shrinkage(sched, data, 1.6)
        for plan in enumerate_plans(5):
            op = evaluate_plan(plan, sched, data, shrink)
            assert op.interval == (1, 5)
            assert np.all(op.entries >= 0.0)

    def test_boot_matches_dp_low_variance(self):
        sched = make_cosine_schedule(6)
        data = DiagGaussian([0.5])
        shrink = shrinkage(sched, data, 6.4)
        surr = surrogate_target(sched, data)
        boot_obj = w2_objective(
            evaluate_plan(plan_sequential_boot(6), sched, data, shrink), surr
        )
        dp = pareto_dp(sched, data, shrink, surr)
        assert boot_obj == pytest.approx(dp.objective, abs=1e-12)


def _reference_evaluate(plan, sched, data, shrink):
    """The object recursion that ``plan_entries`` replaced: one operator per node."""
    if isinstance(plan, Leaf):
        return single_step_operator(sched, data, plan.t)
    if isinstance(plan, OneShot):
        return direct_merge(sched, data, shrink, plan.t1, plan.t2)
    return merge(
        _reference_evaluate(plan.left, sched, data, shrink),
        _reference_evaluate(plan.right, sched, data, shrink),
        shrink,
    )


@st.composite
def _plan_problems(draw, max_T=6):
    """A cosine or random valid schedule with T <= max_T, d <= 3 variances and s_train."""
    T = draw(st.integers(1, max_T))
    if draw(st.booleans()):
        sched = make_cosine_schedule(T)
    else:
        steps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T)))
        alpha = np.concatenate([[1.0], 1.0 - np.cumsum(steps) / np.sum(steps)])
        alpha[-1] = 0.0
        sched = NoiseSchedule(alpha=alpha, sigma=np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha)))
    lam = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.08, 3.0]), st.floats(0.05, 4.0)),
            min_size=1,
            max_size=3,
        )
    )
    return sched, DiagGaussian(lam), draw(st.sampled_from([0.0, 1.6, 6.4]))


class TestPlanEntries:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(_plan_problems())
    def test_every_plan_matches_object_recursion_bit_for_bit(self, problem):
        sched, data, s_train = problem
        shrink = shrinkage(sched, data, s_train)
        single = single_step_matrix(sched, data)
        for plan in enumerate_plans(sched.T):
            ref = _reference_evaluate(plan, sched, data, shrink).entries
            assert plan_entries(plan, single, shrink.gamma).tobytes() == ref.tobytes()
            assert evaluate_plan(plan, sched, data, shrink).entries.tobytes() == ref.tobytes()

    def test_sub_interval_plans(self):
        sched = make_cosine_schedule(6)
        data = DiagGaussian([0.7, 1.3])
        shrink = shrinkage(sched, data, 1.6)
        single = single_step_matrix(sched, data)
        for plan in (Leaf(4), OneShot(2, 5), MergeNode(OneShot(2, 3), Leaf(4))):
            ref = _reference_evaluate(plan, sched, data, shrink).entries
            assert plan_entries(plan, single, shrink.gamma).tobytes() == ref.tobytes()

    def test_shrinkage_must_match(self):
        sched = make_cosine_schedule(4)
        data = DiagGaussian([1.0, 0.5])
        for other_sched, other_data in (
            (make_cosine_schedule(5), data),
            (sched, DiagGaussian([1.0])),
        ):
            shrink = shrinkage(other_sched, other_data, 1.0)
            with pytest.raises(ValueError, match="does not match"):
                evaluate_plan(plan_vanilla(4), sched, data, shrink)


class TestThreeStepOrdering:
    """Value ordering of the three canonical shapes in the contracting regime."""

    def _values(self, g_mid: float, g_end: float):
        sched = make_cosine_schedule(3)
        data = DiagGaussian([0.5])
        single = single_step_matrix(sched, data)
        assert np.all(single < 1.0)
        gamma = np.array([[0.5], [g_mid], [g_end]])
        shrink = ShrinkageProfile(s_train=np.nan, gamma=gamma)
        values = {}
        for plan in enumerate_plans(3):
            values[format_plan(plan)] = evaluate_plan(
                plan, sched, data, shrink
            ).entries[0]
        return values

    def test_boot_is_minimal_everywhere(self):
        boot_key = format_plan(plan_sequential_boot(3))
        cons_key = format_plan(plan_sequential_consistency(3))
        for g_mid in (0.1, 0.3, 0.5, 0.7, 0.9):
            for g_end in (0.1, 0.3, 0.5, 0.7, 0.9):
                values = self._values(g_mid, g_end)
                boot = values[boot_key]
                assert boot <= values[cons_key]
                assert boot <= min(values.values()) + 1e-15

    def test_unit_variance_with_trained_shrinkage(self):
        # lam = 1, gamma from s = 6.4: every shape overshoots the target
        # product and boot stays closest
        sched = make_cosine_schedule(3)
        data = DiagGaussian([1.0])
        shrink = shrinkage(sched, data, 6.4)
        target = np.prod(single_step_matrix(sched, data))
        vals = {
            name: evaluate_plan(plan, sched, data, shrink).entries[0]
            for name, plan in (
                ("vanilla", plan_vanilla(3)),
                ("boot", plan_sequential_boot(3)),
                ("consistency", plan_sequential_consistency(3)),
            )
        }
        assert all(v > target for v in vals.values())
        assert vals["boot"] <= vals["consistency"]
        assert vals["boot"] <= vals["vanilla"]


class TestEnumeratePlans:
    def test_counts_match_recurrence(self):
        for T in range(1, 9):
            assert sum(1 for _ in enumerate_plans(T)) == count_plans(T)

    def test_known_counts(self):
        assert count_plans(1) == 1
        assert count_plans(2) == 2
        assert count_plans(3) == 5
        assert count_plans(4) == 15

    def test_t2_shapes_evaluate_identically(self):
        sched = make_cosine_schedule(2)
        data = DiagGaussian([0.8])
        shrink = shrinkage(sched, data, 2.0)
        plans = list(enumerate_plans(2))
        assert len(plans) == 2
        a, b = (evaluate_plan(p, sched, data, shrink).entries[0] for p in plans)
        assert a == b

    def test_all_plans_distinct_shapes(self):
        plans = list(enumerate_plans(5))
        assert len(set(map(format_plan, plans))) == len(plans)

    def test_guard(self):
        with pytest.raises(ValueError, match="limited"):
            next(enumerate_plans(13))

    def test_count_plans_rejects_t_below_one(self):
        for T in (0, -1, -3):
            with pytest.raises(ValueError, match=f"T must be >= 1, got {T}"):
                count_plans(T)


@st.composite
def _plans(draw, t1=None, t2=None):
    """A random valid plan: every node a leaf, a one-shot merge or a binary split."""
    if t1 is None:
        t1 = draw(st.integers(1, 10_000))
        t2 = t1 + draw(st.integers(0, 40))
    if t1 == t2:
        return Leaf(t1)
    if draw(st.integers(0, 3)) == 0:
        return OneShot(t1, t2)
    m = draw(st.integers(t1, t2 - 1))
    return MergeNode(draw(_plans(t1, m)), draw(_plans(m + 1, t2)))


class TestSerialization:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(_plans())
    def test_round_trip_random_plans(self, plan):
        text = format_plan(plan)
        assert parse_plan(text) == plan
        assert format_plan(parse_plan(text)) == text

    def test_round_trip_all_small_plans(self):
        for T in range(1, 6):
            for plan in enumerate_plans(T):
                assert parse_plan(format_plan(plan)) == plan

    def test_round_trip_canonical(self):
        for plan in (
            plan_vanilla(9),
            plan_progressive(8),
            plan_sequential_boot(9),
            plan_sequential_consistency(9),
        ):
            assert parse_plan(format_plan(plan)) == plan

    def test_examples(self):
        assert format_plan(OneShot(1, 4)) == "(1:4 oneshot)"
        assert (
            format_plan(MergeNode(Leaf(1), MergeNode(Leaf(2), Leaf(3))))
            == "((1:1)((2:2)(3:3)))"
        )

    def test_parse_errors(self):
        for bad in ("", "(1:2)", "((1:1)(2:2)", "(1:1)x", "(2:1 oneshot)"):
            with pytest.raises(ValueError):
                parse_plan(bad)


class TestScalarPhaseTransition:
    @pytest.mark.parametrize("lam", [0.2, 0.5, 1.0])
    def test_boot_optimal_low_variance(self, lam):
        # T<=6 brute-force proxy
        sched6 = make_cosine_schedule(6)
        data = DiagGaussian([lam])
        shrink6 = shrinkage(sched6, data, 6.4)
        surr6 = surrogate_target(sched6, data)
        boot6 = w2_objective(
            evaluate_plan(plan_sequential_boot(6), sched6, data, shrink6), surr6
        )
        bf = brute_force_optimum(sched6, data, shrink6, surr6)
        assert abs(boot6 - bf.objective) <= 1e-12
        # full-size DP
        sched32 = make_cosine_schedule(32)
        shrink32 = shrinkage(sched32, data, 6.4)
        surr32 = surrogate_target(sched32, data)
        boot32 = w2_objective(
            evaluate_plan(plan_sequential_boot(32), sched32, data, shrink32), surr32
        )
        dp = pareto_dp(sched32, data, shrink32, surr32)
        assert abs(boot32 - dp.objective) <= 1e-12

    def test_vanilla_optimal_high_variance(self):
        lam = 5.0
        data = DiagGaussian([lam])
        sched6 = make_cosine_schedule(6)
        shrink6 = shrinkage(sched6, data, 6.4)
        surr6 = surrogate_target(sched6, data)
        vanilla6 = w2_objective(
            evaluate_plan(plan_vanilla(6), sched6, data, shrink6), surr6
        )
        bf = brute_force_optimum(sched6, data, shrink6, surr6)
        assert abs(vanilla6 - bf.objective) <= 1e-12
        sched32 = make_cosine_schedule(32)
        shrink32 = shrinkage(sched32, data, 6.4)
        surr32 = surrogate_target(sched32, data)
        vanilla32 = w2_objective(
            evaluate_plan(plan_vanilla(32), sched32, data, shrink32), surr32
        )
        dp = pareto_dp(sched32, data, shrink32, surr32)
        assert abs(vanilla32 - dp.objective) <= 1e-12


class TestArrayOracle:
    """``brute_force_optimum`` against the object loop over ``enumerate_plans`` it replaced."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_plan_problems(max_T=7))
    @example((make_cosine_schedule(1), DiagGaussian([0.5]), 6.4))
    @example((make_cosine_schedule(2), DiagGaussian([0.5]), 6.4))
    @example((make_cosine_schedule(2), DiagGaussian([1.08, 0.95, 1.3]), 0.0))
    @example((make_cosine_schedule(7), DiagGaussian([0.5]), 0.0))  # s = 0: every plan ties
    def test_matches_object_loop_bit_for_bit(self, problem):
        sched, data, s_train = problem
        shrink = shrinkage(sched, data, s_train)
        surr = surrogate_target(sched, data)
        bf = brute_force_optimum(sched, data, shrink, surr)
        ref = object_brute_force_optimum(sched, data, shrink, surr)
        assert np.float64(bf.objective).tobytes() == np.float64(ref.objective).tobytes()
        assert bf.best.entries.tobytes() == ref.best.entries.tobytes()
        assert format_plan(bf.plan) == format_plan(ref.plan)
