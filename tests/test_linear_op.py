import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from merge_planner.linear_op import (
    DiagGaussian,
    DiagOperator,
    ShrinkageProfile,
    composite_operator,
    contraction_certificate,
    gradient_flow_trajectory,
    shrinkage,
    single_step_matrix,
    single_step_operator,
    surrogate_target,
    w2_objective,
)
from merge_planner.schedule import NoiseSchedule, make_cosine_schedule
from merge_planner.verify import integrate_gradient_flow_rk4

from plan_reference import direct_merge, merge


@pytest.fixture(scope="module")
def sched32():
    return make_cosine_schedule(32)


class TestDiagGaussian:
    def test_sorted_non_increasing(self):
        data = DiagGaussian([0.5, 2.0, 1.0])
        np.testing.assert_array_equal(data.lam, [2.0, 1.0, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiagGaussian([1.0, -0.1])

    def test_zero_allowed(self):
        assert DiagGaussian([0.0]).lam[0] == 0.0


class TestSingleStepOperator:
    def test_final_step_is_sigma_T_minus_1(self, sched32):
        for lam in (0.0, 0.3, 1.0, 7.5):
            op = single_step_operator(sched32, DiagGaussian([lam]), 32)
            assert op.entries[0] == sched32.sigma[31]

    def test_zero_variance_collapses(self, sched32):
        op = single_step_operator(sched32, DiagGaussian([0.0]), 5)
        assert op.entries[0] == pytest.approx(
            sched32.sigma[4] / sched32.sigma[5], abs=0.0
        )

    def test_unit_variance_is_angle_cosine(self, sched32):
        op = single_step_operator(sched32, DiagGaussian([1.0]), 5)
        assert op.entries[0] == pytest.approx(np.cos(np.pi / 64), abs=1e-15)

    def test_interval_recorded(self, sched32):
        assert single_step_operator(sched32, DiagGaussian([1.0]), 7).interval == (7, 7)

    def test_step_bounds_enforced(self, sched32):
        data = DiagGaussian([1.0])
        with pytest.raises(ValueError):
            single_step_operator(sched32, data, 0)
        with pytest.raises(ValueError):
            single_step_operator(sched32, data, 33)

    def test_projection_identity(self, sched32):
        # rational form vs the inner-product form of the projection coefficient
        rng = np.random.default_rng(5)
        data = DiagGaussian(rng.uniform(0.0, 4.0, size=6))
        for t in (1, 2, 16, 31, 32):
            op = single_step_operator(sched32, data, t)
            for i in range(data.d):
                # signal alpha[t]*sqrt(lam_i) and noise sigma[t] at t-1 and t
                s_prev = sched32.alpha[t - 1] * np.sqrt(data.lam[i])
                s_cur = sched32.alpha[t] * np.sqrt(data.lam[i])
                n_prev, n_cur = sched32.sigma[t - 1], sched32.sigma[t]
                proj = (s_prev * s_cur + n_prev * n_cur) / (s_cur * s_cur + n_cur * n_cur)
                assert op.entries[i] == pytest.approx(proj, abs=1e-14)


@st.composite
def _step_problems(draw):
    """A cosine schedule, or any alpha in [0, 1] with sigma >= 0.01 after t = 0, and variances."""
    T = draw(st.integers(1, 40))
    if draw(st.booleans()):
        sched = make_cosine_schedule(T)
    else:
        unit = st.floats(0.0, 1.0)
        alpha = draw(hnp.arrays(np.float64, T + 1, elements=unit))
        sigma = draw(hnp.arrays(np.float64, T + 1, elements=st.floats(0.01, 1.0)))
        sched = NoiseSchedule(alpha=alpha, sigma=sigma)
    lam = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 1.08]), st.floats(0.0, 50.0)),
            min_size=1,
            max_size=4,
        )
    )
    return sched, DiagGaussian(lam)


class TestSingleStepMatrix:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(_step_problems())
    def test_rows_equal_single_step_operators_bit_for_bit(self, problem):
        sched, data = problem
        rows = np.stack(
            [single_step_operator(sched, data, t).entries for t in range(1, sched.T + 1)]
        )
        matrix = single_step_matrix(sched, data)
        assert matrix.shape == rows.shape == (sched.T, data.d)
        assert matrix.tobytes() == rows.tobytes()

    def test_degenerate_denominator_names_first_step(self):
        # alpha_t = sigma_t = 0 at t = 2 and t = 3: every coordinate degenerates
        sched = NoiseSchedule(alpha=[1.0, 0.6, 0.0, 0.0, 0.0], sigma=[0.0, 0.8, 0.0, 0.0, 1.0])
        data = DiagGaussian([2.0, 0.5])
        with pytest.raises(ValueError, match=r"degenerate denominator at t=2$"):
            single_step_matrix(sched, data)
        with pytest.raises(ValueError, match=r"degenerate denominator at t=2$"):
            single_step_operator(sched, data, 2)

    def test_degenerate_denominator_in_one_coordinate(self):
        # sigma_1 = 0: only the zero-variance coordinate degenerates at t = 1
        sched = NoiseSchedule(alpha=[1.0, 1.0, 0.6, 0.0], sigma=[0.0, 0.0, 0.8, 1.0])
        with pytest.raises(ValueError, match=r"degenerate denominator at t=1$"):
            single_step_matrix(sched, DiagGaussian([1.0, 0.0]))
        assert single_step_matrix(sched, DiagGaussian([1.0])).shape == (3, 1)


class TestCompositeOperator:
    def test_single_factor(self, sched32):
        data = DiagGaussian([0.7])
        one = composite_operator(sched32, data, 9, 9)
        assert one.entries[0] == single_step_operator(sched32, data, 9).entries[0]

    def test_unit_variance_product_of_cosines(self):
        sched = make_cosine_schedule(4)
        comp = composite_operator(sched, DiagGaussian([1.0]), 1, 4)
        assert comp.entries[0] == pytest.approx(np.cos(np.pi / 8) ** 4, abs=1e-15)

    def test_invalid_interval(self, sched32):
        with pytest.raises(ValueError):
            composite_operator(sched32, DiagGaussian([1.0]), 5, 4)

    def test_contraction_below_sqrt_lam(self, sched32):
        for lam in (0.2, 1.0, 5.0):
            comp = composite_operator(sched32, DiagGaussian([lam]), 1, 32)
            assert comp.entries[0] < np.sqrt(lam)


class TestContractionCertificate:
    def test_zero_variance_zero_slack(self, sched32):
        report = contraction_certificate(sched32, DiagGaussian([0.0]))
        assert report.factor[0] == 0.0
        assert report.slack[0] == 0.0
        assert report.ok

    def test_unit_variance_strictly_contracts(self, sched32):
        report = contraction_certificate(sched32, DiagGaussian([1.0]))
        assert report.factor[0] < 1.0
        assert report.slack[0] > 0.0

    def test_high_variance_strict_slack(self, sched32):
        report = contraction_certificate(sched32, DiagGaussian([5.0]))
        assert report.factor[0] < np.sqrt(5.0)
        assert report.slack[0] > 0.0

    def test_strict_for_random_positive_variances(self):
        rng = np.random.default_rng(29)
        for T in (8, 32):
            sched = make_cosine_schedule(T)
            for _ in range(25):
                data = DiagGaussian(rng.uniform(1e-3, 10.0, size=4))
                report = contraction_certificate(sched, data)
                assert np.all(report.slack > 0.0)


class TestShrinkage:
    def test_zero_time_is_identity_weight(self, sched32):
        prof = shrinkage(sched32, DiagGaussian([0.5, 2.0]), 0.0)
        np.testing.assert_array_equal(prof.gamma, np.ones((32, 2)))

    def test_long_training_vanishes(self, sched32):
        prof = shrinkage(sched32, DiagGaussian([1.0]), 1e3)
        assert np.all(prof.gamma < 1e-100)

    def test_unit_variance_constant_rate(self, sched32):
        prof = shrinkage(sched32, DiagGaussian([1.0]), 6.4)
        np.testing.assert_allclose(prof.gamma, np.exp(-12.8), rtol=0, atol=1e-18)

    def test_rejects_negative_time(self, sched32):
        with pytest.raises(ValueError):
            shrinkage(sched32, DiagGaussian([1.0]), -0.1)

    def test_monotone_in_training_time(self, sched32):
        data = DiagGaussian([0.3, 1.7])
        g1 = shrinkage(sched32, data, 1.0).gamma
        g2 = shrinkage(sched32, data, 2.0).gamma
        assert np.all(g2 < g1)

    def test_bounds(self, sched32):
        prof = shrinkage(sched32, DiagGaussian([0.0, 3.0]), 0.7)
        assert np.all(prof.gamma > 0.0) and np.all(prof.gamma <= 1.0)


class TestGradientFlow:
    def test_initial_condition(self):
        out = gradient_flow_trajectory(3.0, -1.0, 2.0, [0.0])
        assert out[0] == -1.0

    def test_converges_to_target(self):
        out = gradient_flow_trajectory(3.0, -1.0, 2.0, [50.0])
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    def test_unit_rate_value(self):
        out = gradient_flow_trajectory(0.0, 1.0, 1.0, [0.5])
        assert out[0] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            gradient_flow_trajectory(0.0, 1.0, 0.0, [0.1])

    def test_matches_rk4_integration(self):
        rng = np.random.default_rng(99)
        rate = rng.uniform(0.05, 3.0, size=20)
        init = rng.uniform(-2.0, 2.0, size=20)
        target = rng.uniform(-2.0, 2.0, size=20)
        s_grid = np.linspace(0.0, 10.0, 41)
        numeric = integrate_gradient_flow_rk4(target, init, rate, s_grid)
        closed = np.stack(
            [
                gradient_flow_trajectory(target[i], init[i], rate[i], s_grid)
                for i in range(20)
            ]
        )
        assert np.max(np.abs(closed - numeric)) <= 1e-8


class TestMerge:
    def _profile(self, value: float, T: int = 4, d: int = 1) -> ShrinkageProfile:
        return ShrinkageProfile(s_train=np.nan, gamma=np.full((T, d), value))

    def test_pure_composition_at_gamma_zero(self):
        left = DiagOperator(entries=[0.9], interval=(1, 1))
        right = DiagOperator(entries=[0.8], interval=(2, 2))
        out = merge(left, right, self._profile(0.0))
        assert out.entries[0] == pytest.approx(0.72, abs=1e-15)

    def test_frozen_at_gamma_one(self):
        left = DiagOperator(entries=[0.9], interval=(1, 1))
        right = DiagOperator(entries=[0.8], interval=(2, 2))
        out = merge(left, right, self._profile(1.0))
        assert out.entries[0] == 0.8

    def test_halfway_convex_combination(self):
        left = DiagOperator(entries=[0.9], interval=(1, 1))
        right = DiagOperator(entries=[0.8], interval=(2, 2))
        out = merge(left, right, self._profile(0.5))
        assert out.entries[0] == pytest.approx(0.76, abs=1e-15)
        assert out.interval == (1, 2)

    def test_non_contiguous_rejected(self):
        left = DiagOperator(entries=[0.9], interval=(1, 1))
        right = DiagOperator(entries=[0.8], interval=(3, 3))
        with pytest.raises(ValueError, match="contiguous"):
            merge(left, right, self._profile(0.5))

    def test_dimension_mismatch_rejected(self):
        left = DiagOperator(entries=[0.9, 0.9], interval=(1, 1))
        right = DiagOperator(entries=[0.8], interval=(2, 2))
        with pytest.raises(ValueError, match="dimension"):
            merge(left, right, self._profile(0.5, d=2))

    def test_interpolation_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            l, r, g = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
            left = DiagOperator(entries=[l], interval=(1, 1))
            right = DiagOperator(entries=[r], interval=(2, 2))
            out = merge(
                left, right, ShrinkageProfile(s_train=np.nan, gamma=np.full((2, 1), g))
            )
            lo = min(l * r, r) - 1e-12
            hi = max(l * r, r) + 1e-12
            assert lo <= out.entries[0] <= hi


class TestDirectMerge:
    def test_single_step_unchanged(self, sched32):
        data = DiagGaussian([0.4])
        shrink = shrinkage(sched32, data, 6.4)
        out = direct_merge(sched32, data, shrink, 7, 7)
        assert out.entries[0] == single_step_operator(sched32, data, 7).entries[0]

    def test_two_step_formula(self):
        sched = make_cosine_schedule(2)
        data = DiagGaussian([1.0])
        shrink = shrinkage(sched, data, 1.0)
        out = direct_merge(sched, data, shrink, 1, 2)
        a1 = single_step_operator(sched, data, 1).entries[0]
        a2 = single_step_operator(sched, data, 2).entries[0]
        g = shrink.gamma[1][0]
        assert out.entries[0] == pytest.approx((1 - g) * a1 * a2 + g * a2, abs=1e-15)

    def test_invalid_interval(self, sched32):
        data = DiagGaussian([1.0])
        shrink = shrinkage(sched32, data, 6.4)
        with pytest.raises(ValueError):
            direct_merge(sched32, data, shrink, 10, 9)


class TestSurrogateTarget:
    def test_low_variance_equals_composite(self, sched32):
        for lam in (0.2, 0.9, 1.0):
            data = DiagGaussian([lam])
            surr = surrogate_target(sched32, data)
            comp = composite_operator(sched32, data, 1, 32)
            assert surr.entries[0] == comp.entries[0]
            assert surr.interval == (1, 32)

    def test_high_variance_clamps_final_factor(self, sched32):
        data = DiagGaussian([5.0])
        single_final = single_step_operator(sched32, data, 32).entries[0]
        assert single_final < 1.0  # the only contracting factor at lam=5
        surr = surrogate_target(sched32, data)
        comp = composite_operator(sched32, data, 1, 32)
        assert surr.entries[0] == pytest.approx(
            comp.entries[0] / single_final, rel=1e-12
        )

    def test_surrogate_dominates_composite_when_high_variance(self, sched32):
        for lam in (1.5, 2.0, 5.0):
            data = DiagGaussian([lam])
            surr = surrogate_target(sched32, data)
            comp = composite_operator(sched32, data, 1, 32)
            assert surr.entries[0] >= comp.entries[0]


class TestW2Objective:
    def test_identity_is_zero(self, sched32):
        surr = surrogate_target(sched32, DiagGaussian([1.0]))
        assert w2_objective(surr, surr) == 0.0

    def test_scalar_difference(self):
        a = DiagOperator(entries=[0.9], interval=(1, 4))
        b = DiagOperator(entries=[1.0], interval=(1, 4))
        assert w2_objective(a, b) == pytest.approx(0.01, abs=1e-15)

    def test_std_dev_distance(self):
        a = DiagOperator(entries=[2.0, 1.0], interval=(1, 4))
        b = DiagOperator(entries=[1.0, 1.0], interval=(1, 4))
        assert w2_objective(a, b) == 1.0

    def test_mismatches_rejected(self):
        a = DiagOperator(entries=[1.0], interval=(1, 4))
        b = DiagOperator(entries=[1.0, 2.0], interval=(1, 4))
        c = DiagOperator(entries=[1.0], interval=(1, 5))
        with pytest.raises(ValueError):
            w2_objective(a, b)
        with pytest.raises(ValueError):
            w2_objective(a, c)


class TestDiagonalizeCovariance:
    def test_basis_invariance_of_objective(self, sched32):
        # the squared objective equals the Frobenius distance of the diagonal
        # operators, which orthogonal conjugation preserves
        rng = np.random.default_rng(23)
        B = rng.normal(size=(4, 4)) * 0.6
        Sigma = B @ B.T + 0.1 * np.eye(4)
        vals, vecs = np.linalg.eigh(Sigma)
        order = np.argsort(vals)[::-1]  # descending, as DiagGaussian sorts lam
        U, lam = vecs[:, order], vals[order]
        data = DiagGaussian(lam)
        shrink = shrinkage(sched32, data, 6.4)
        surr = surrogate_target(sched32, data)
        cand = direct_merge(sched32, data, shrink, 1, 32)
        obj = w2_objective(cand, surr)

        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        for rot in (U, Q):
            m_surr = rot @ np.diag(surr.entries) @ rot.T
            m_cand = rot @ np.diag(cand.entries) @ rot.T
            frob = float(np.sum((m_surr - m_cand) ** 2))
            assert abs(frob - obj) <= 1e-10


class TestDiagOperator:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            DiagOperator(entries=[-0.1], interval=(1, 1))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DiagOperator(entries=[0.5], interval=(0, 1))
        with pytest.raises(ValueError):
            DiagOperator(entries=[0.5], interval=(3, 2))
