import itertools
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gmm_reference
from gmm_reference import (
    cluster_moments,
    exhaustive_partition,
    noisy_sample,
    solve_normal,
    weighted_kmeans,
)
from merge_planner import gmm as gmm_module
from merge_planner import report as report_module
from merge_planner.gmm import (
    GaussianMixture,
    MoeOperator,
    NoisySampler,
    PathGating,
    PosteriorGating,
    apply_chain,
    choose_partition,
    compose_expand,
    distill_chain,
    error_propagation_audit,
    fit_cluster_student,
    make_circle_mixture,
    mc_distillation_loss,
    optimal_mixture_denoiser,
    posterior_weights,
    read_mixture,
    single_step_moe,
    write_mixture,
)
from merge_planner.linear_op import DiagGaussian, single_step_matrix
from merge_planner.report import ExperimentConfig
from merge_planner.schedule import make_cosine_schedule

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def sched32():
    return make_cosine_schedule(32)


@pytest.fixture(scope="module")
def circle8():
    return make_circle_mixture(8)


def _two_mode(sep=4.0, std=0.4):
    return GaussianMixture(
        pi=[0.5, 0.5],
        mu=[[-sep / 2, 0.0], [sep / 2, 0.0]],
        cov=np.stack([np.eye(2) * std**2] * 2),
    )


class TestGaussianMixture:
    def test_circle_geometry(self, circle8):
        assert circle8.K == 8 and circle8.d == 2
        radii = np.linalg.norm(circle8.mu, axis=1)
        np.testing.assert_allclose(radii, 5.0, atol=1e-12)
        np.testing.assert_allclose(
            circle8.cov, np.broadcast_to(0.09 * np.eye(2), (8, 2, 2)), atol=1e-15
        )
        assert abs(circle8.pi.sum() - 1.0) <= 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture(pi=[0.5, 0.4], mu=np.zeros((2, 1)), cov=np.ones((2, 1, 1)))
        with pytest.raises(ValueError, match="positive"):
            GaussianMixture(pi=[1.0, 0.0], mu=np.zeros((2, 1)), cov=np.ones((2, 1, 1)))

    def test_rejects_asymmetric_cov(self):
        cov = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMixture(pi=[1.0], mu=np.zeros((1, 2)), cov=cov)

    def test_rejects_indefinite_cov(self):
        cov = np.array([[[1.0, 0.0], [0.0, -0.5]]])
        with pytest.raises(ValueError, match="PSD"):
            GaussianMixture(pi=[1.0], mu=np.zeros((1, 2)), cov=cov)

    def test_file_round_trip(self, tmp_path, circle8):
        path = tmp_path / "circle.mix"
        write_mixture(circle8, path)
        back = read_mixture(path)
        np.testing.assert_array_equal(back.pi, circle8.pi)
        np.testing.assert_array_equal(back.mu, circle8.mu)
        np.testing.assert_array_equal(back.cov, circle8.cov)


class TestPosteriorWeights:
    def test_single_component_always_one(self, sched32):
        gmm = GaussianMixture(pi=[1.0], mu=np.zeros((1, 2)), cov=np.eye(2)[None])
        z = np.random.default_rng(0).normal(size=(50, 2))
        w = posterior_weights(gmm, sched32, 10, z)
        np.testing.assert_array_equal(w, np.ones((50, 1)))

    def test_symmetry_axis_splits_evenly(self, sched32):
        gmm = _two_mode()
        z = np.array([[0.0, 0.3], [0.0, -1.2], [0.0, 0.0]])
        w = posterior_weights(gmm, sched32, 7, z)
        np.testing.assert_allclose(w, 0.5, atol=1e-12)

    def test_mode_center_confident(self, sched32, circle8):
        z = sched32.alpha[1] * circle8.mu[3]
        w = posterior_weights(circle8, sched32, 1, z)
        assert w[3] > 0.99

    def test_log_domain_survives_far_tails(self, sched32, circle8):
        # naive densities underflow out here; log-sum-exp must not
        z = np.array([1e4, -1e4])
        w = posterior_weights(circle8, sched32, 1, z)
        assert np.isfinite(w).all() and abs(w.sum() - 1.0) <= 1e-10

    def test_terminal_level_is_prior(self, sched32, circle8):
        z = np.random.default_rng(1).normal(size=(20, 2))
        w = posterior_weights(circle8, sched32, 32, z)
        np.testing.assert_allclose(w, 1.0 / 8.0, atol=1e-12)


class TestMixtureDenoiser:
    def test_single_gaussian_reduction(self, sched32):
        lam = np.array([1.3, 0.7])
        gmm = GaussianMixture(pi=[1.0], mu=np.zeros((1, 2)), cov=np.diag(lam)[None])
        z = np.random.default_rng(2).normal(size=(40, 2))
        t = 9
        a, s = sched32.alpha[t], sched32.sigma[t]
        expected = z * (a * lam / (a * a * lam + s * s))
        got = optimal_mixture_denoiser(gmm, sched32, t, z)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_low_noise_recovers_signal(self, circle8):
        sched = make_cosine_schedule(512)
        rng = np.random.default_rng(3)
        z = NoisySampler(gmm=circle8, sched=sched, t=1).sample(100, rng)
        out = optimal_mixture_denoiser(circle8, sched, 1, z)
        assert np.max(np.abs(out - z)) < 0.05

    def test_isotropic_component_scalar_collapse(self, sched32):
        gmm = _two_mode(std=0.5)
        t = 11
        a, s = sched32.alpha[t], sched32.sigma[t]
        c = 0.25
        z = np.random.default_rng(4).normal(size=(30, 2), scale=2.0)
        w = posterior_weights(gmm, sched32, t, z)
        per_comp = [
            gmm.mu[k] + (a * c / (a * a * c + s * s)) * (z - a * gmm.mu[k])
            for k in range(2)
        ]
        expected = w[:, 0:1] * per_comp[0] + w[:, 1:2] * per_comp[1]
        got = optimal_mixture_denoiser(gmm, sched32, t, z)
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestSingleStepMoe:
    def test_k1_reduces_to_linear_operator(self, sched32):
        lam = np.array([1.3, 0.7])
        gmm = GaussianMixture(pi=[1.0], mu=np.zeros((1, 2)), cov=np.diag(lam)[None])
        single = single_step_matrix(sched32, DiagGaussian(lam))
        for t in (1, 16, 32):
            op = single_step_moe(gmm, sched32, t)
            diag = np.sort(np.diag(op.A[0]))[::-1]
            np.testing.assert_allclose(diag, single[t - 1], atol=1e-12)
            np.testing.assert_array_equal(op.b[0], 0.0)

    def test_offset_formula(self, sched32, circle8):
        t = 5
        op = single_step_moe(circle8, sched32, t)
        a_prev, a = sched32.alpha[t - 1], sched32.alpha[t]
        for k in range(circle8.K):
            expected = (a_prev * np.eye(2) - a * op.A[k]) @ circle8.mu[k]
            np.testing.assert_allclose(op.b[k], expected, atol=1e-12)
            assert np.linalg.norm(op.b[k]) > 0.0

    def test_matches_denoiser_update_rule(self, sched32, circle8):
        # the MoE output must equal the deterministic update applied to the
        # posterior-mean denoiser: two independent code paths
        rng = np.random.default_rng(5)
        for t in (1, 7, 19, 31, 32):
            z = NoisySampler(gmm=circle8, sched=sched32, t=t).sample(1000, rng)
            op = single_step_moe(circle8, sched32, t)
            moe_out = op.apply(z)
            x0 = optimal_mixture_denoiser(circle8, sched32, t, z)
            a_prev, s_prev = sched32.alpha[t - 1], sched32.sigma[t - 1]
            a, s = sched32.alpha[t], sched32.sigma[t]
            ref = a_prev * x0 + s_prev * (z - a * x0) / s
            assert np.max(np.abs(moe_out - ref)) <= 1e-10

    def test_terminal_step_allowed(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 32)
        np.testing.assert_allclose(
            [np.diag(A) for A in op.A], sched32.sigma[31], atol=1e-12
        )


class TestMoeOperator:
    @pytest.mark.parametrize(
        "A, b, match",
        [
            (np.ones((2, 2, 3)), np.zeros((2, 2)), "square"),
            (np.eye(2), np.zeros(2), "square"),  # one matrix, not a stack
            (np.ones((2, 2, 2)), np.zeros((2, 3)), "b must have shape"),
            (np.ones((2, 2, 2)), np.zeros((1, 2)), "b must have shape"),
            (np.zeros((0, 2, 2)), np.zeros((0, 2)), "at least one expert"),
            (np.array([[[1.0, np.nan], [0.0, 1.0]]]), np.zeros((1, 2)), "finite"),
            (np.eye(2)[None], np.array([[0.0, -np.inf]]), "finite"),
        ],
    )
    def test_rejects_malformed_stacks(self, sched32, A, b, match):
        gating = PosteriorGating(gmm=_two_mode(), sched=sched32, t=5)
        with pytest.raises(ValueError, match=match):
            MoeOperator(A=A, b=b, gating=gating, interval=(5, 5))

    def test_stacks_are_read_only_copies(self, sched32):
        gating = PosteriorGating(gmm=_two_mode(), sched=sched32, t=5)
        A = np.stack([np.eye(2), 2.0 * np.eye(2)])
        b = np.array([[0.5, -0.5], [1.0, 0.0]])
        op = MoeOperator(A=A, b=b, gating=gating, interval=(5, 5))
        A[0, 0, 0] = 7.0
        b[1] = 9.0
        np.testing.assert_array_equal(op.A, [np.eye(2), 2.0 * np.eye(2)])
        np.testing.assert_array_equal(op.b, [[0.5, -0.5], [1.0, 0.0]])
        for stack in (op.A, op.b):
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 0.0

    def test_operators_compare_and_hash_by_identity(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (3, 3, 2)]
        expansions = [compose_expand(ops[1:]) for _ in range(2)]
        gatings = [
            PathGating(ops=expansions[0].gating.ops, membership=np.ones((64, 1)))
            for _ in range(2)
        ]
        for a, b in (ops[:2], expansions, gatings):
            assert a == a and not (a != a)
            assert a != b and not (a == b)  # equal contents, distinct objects
            assert hash(a) == hash(a)
            assert len({a, b, a}) == 2
        assert ops[0] != ops[2]


class TestComposeExpand:
    def test_component_count_k8(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        assert compose_expand(ops).n_experts == 64

    def test_single_component_chain(self, sched32):
        gmm = GaussianMixture(pi=[1.0], mu=[[0.4, -0.2]], cov=0.5 * np.eye(2)[None])
        ops = [single_step_moe(gmm, sched32, t) for t in (20, 19, 18)]
        expansion = compose_expand(ops)
        assert expansion.n_experts == 1
        A = ops[2].A[0] @ ops[1].A[0] @ ops[0].A[0]
        np.testing.assert_allclose(expansion.A[0], A, atol=1e-14)
        b = ops[2].A[0] @ (ops[1].A[0] @ ops[0].b[0] + ops[1].b[0]) + ops[2].b[0]
        np.testing.assert_allclose(expansion.b[0], b, atol=1e-14)

    @pytest.mark.parametrize("K", [1, 2, 4, 8])
    @pytest.mark.parametrize("k", [2, 3])
    def test_expansion_equals_sequential(self, sched32, K, k):
        gmm = make_circle_mixture(K)
        ops = [single_step_moe(gmm, sched32, t) for t in range(32, 32 - k, -1)]
        expansion = compose_expand(ops)
        assert expansion.n_experts == K**k
        rng = np.random.default_rng(10 * K + k)
        z = NoisySampler(gmm=gmm, sched=sched32, t=32).sample(500, rng)
        dev = np.max(np.abs(expansion.apply(z) - apply_chain(ops, z)))
        assert dev <= 1e-8

    def test_gating_normalization(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        expansion = compose_expand(ops)
        rng = np.random.default_rng(6)
        z = NoisySampler(gmm=circle8, sched=sched32, t=32).sample(1000, rng)
        w = expansion.gating.weights(z)
        assert np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-10

    def test_contiguity_enforced(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, 32), single_step_moe(circle8, sched32, 30)]
        with pytest.raises(ValueError, match="contiguous"):
            compose_expand(ops)

    def test_cap_enforced(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        with pytest.raises(ValueError, match="cap"):
            compose_expand(ops, cap=63)

    @staticmethod
    def _per_tuple_loop(ops):
        # reference: one chain of 2-D products per expert index tuple
        d = ops[0].d
        for idx in itertools.product(*(range(op.n_experts) for op in ops)):
            A_tot = np.eye(d)
            b_tot = np.zeros(d)
            for op, i in zip(ops, idx):
                A_tot = op.A[i] @ A_tot
                b_tot = op.A[i] @ b_tot + op.b[i]
            yield A_tot, b_tot

    @settings(PROPERTY_SETTINGS, max_examples=80)
    @given(
        d=st.integers(1, 6),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacks_match_per_tuple_loop(self, sched32, d, sizes, seed):
        rng = np.random.default_rng(seed)
        gmm = GaussianMixture(pi=[1.0], mu=np.zeros((1, d)), cov=np.eye(d)[None])
        ops = []
        for j, K in enumerate(sizes):
            A, b = np.empty((K, d, d)), np.empty((K, d))
            for k in range(K):
                A[k] = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-3, 4)
                b[k] = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            t = 20 - j
            gating = PosteriorGating(gmm=gmm, sched=sched32, t=t)
            ops.append(MoeOperator(A=A, b=b, gating=gating, interval=(t, t)))
        expansion = compose_expand(ops)
        # component c is the c-th index tuple in lexicographic order
        want = list(self._per_tuple_loop(ops))
        assert expansion.n_experts == len(want)
        for c, (A, b) in enumerate(want):
            assert expansion.A[c].tobytes() == A.tobytes()
            assert expansion.b[c].tobytes() == b.tobytes()


class TestFitClusterStudent:
    def test_singleton_partition_reproduces_teacher(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        expansion = compose_expand([op])
        rng = np.random.default_rng(7)
        samples = NoisySampler(gmm=circle8, sched=sched32, t=16).sample(2048, rng)
        partition = [[c] for c in range(8)]
        fit = fit_cluster_student(expansion, partition, samples)
        assert fit.bound <= 1e-12
        assert fit.variance <= 1e-12  # single-member clusters have no spread
        dev = np.max(np.abs(fit.student.apply(samples) - op.apply(samples)))
        assert dev <= 1e-8

    def test_identical_components_zero_bound_any_partition(self, sched32):
        gmm = GaussianMixture(
            pi=[0.5, 0.5],
            mu=[[1.0, -0.5], [1.0, -0.5]],
            cov=np.stack([0.3 * np.eye(2)] * 2),
        )
        ops = [single_step_moe(gmm, sched32, t) for t in (10, 9)]
        expansion = compose_expand(ops)
        rng = np.random.default_rng(8)
        samples = NoisySampler(gmm=gmm, sched=sched32, t=10).sample(1024, rng)
        for partition in ([[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 3], [1], [2]]):
            fit = fit_cluster_student(expansion, partition, samples)
            assert fit.bound <= 1e-12

    def test_mc_loss_below_bound_on_fit_samples(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        expansion = compose_expand(ops)
        rng = np.random.default_rng(9)
        samples = NoisySampler(gmm=circle8, sched=sched32, t=32).sample(4096, rng)
        partition = choose_partition(expansion, samples, n_clusters=8, seed=0)
        fit = fit_cluster_student(expansion, partition, samples)
        diff = fit.student.apply(samples) - expansion.apply(samples)
        empirical = float(np.mean(np.sum(diff * diff, axis=1)))
        assert empirical <= fit.bound + 1e-12
        assert fit.bound > 0.0

    def test_rank_deficient_design_flagged(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        expansion = compose_expand(ops)
        samples = np.tile([[0.1, -0.2]], (64, 1))  # rank-1 affine design
        fit = fit_cluster_student(expansion, [[c] for c in range(64)], samples)
        assert fit.ridge_flagged

    def test_partition_validation(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        expansion = compose_expand(ops)
        samples = np.zeros((4, 2))
        with pytest.raises(ValueError, match="cover"):
            fit_cluster_student(expansion, [[0, 1]], samples)
        with pytest.raises(ValueError, match="overlap"):
            fit_cluster_student(
                expansion, [list(range(64)), [0]], samples
            )
        # a repeated index would count its component twice in the moments
        with pytest.raises(ValueError, match=r"group 0 repeats index \[0\]"):
            fit_cluster_student(expansion, [[0, 0, *range(1, 64)]], samples)
        # fractional and boolean indices were truncated to 0 and 1
        rest = [list(range(2, 64))]
        with pytest.raises(ValueError, match=r"group 0 has non-integer indices \[0\.5, 1\.9\]"):
            fit_cluster_student(expansion, [[0.5, 1.9], *rest], samples)
        with pytest.raises(ValueError, match=r"group 1 has non-integer indices \[True, False\]"):
            fit_cluster_student(expansion, [*rest, [True, False]], samples)
        with pytest.raises(ValueError, match=r"group 0 has non-integer indices \[0\.0, 1\.0\]"):
            fit_cluster_student(expansion, [np.array([0.0, 1.0]), *rest], samples)
        # an empty group reads as float64 and still passes
        fit = fit_cluster_student(expansion, [[], [0, 1], *rest], samples)
        assert fit.student.n_experts == 3

    def test_bias_variance_identity_pointwise(self, sched32):
        gmm = _two_mode()
        ops = [single_step_moe(gmm, sched32, t) for t in (12, 11)]
        expansion = compose_expand(ops)
        rng = np.random.default_rng(12)
        z = NoisySampler(gmm=gmm, sched=sched32, t=12).sample(50, rng)
        w = expansion.gating.weights(z)
        A = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        cluster = [0, 2, 3]
        g = np.stack([z @ A.T + b for A, b in zip(expansion.A, expansion.b)], axis=1)
        pred = z @ A.T + b
        wc = w[:, cluster]
        gc = g[:, cluster, :]
        W = wc.sum(axis=1)
        centroid = np.einsum("mc,mci->mi", wc, gc) / W[:, None]
        lhs = np.einsum("mc,mci->m", wc, (pred[:, None, :] - gc) ** 2)
        rhs = W * np.sum((pred - centroid) ** 2, axis=1) + np.einsum(
            "mc,mci->m", wc, (gc - centroid[:, None, :]) ** 2
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestChoosePartition:
    def test_single_cluster(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        expansion = compose_expand([op])
        samples = np.zeros((16, 2))
        assert choose_partition(expansion, samples, n_clusters=1) == [list(range(8))]

    def test_fewer_components_than_clusters(self, sched32):
        gmm = _two_mode()
        expansion = compose_expand([single_step_moe(gmm, sched32, 16)])
        samples = np.zeros((16, 2))
        assert choose_partition(expansion, samples, n_clusters=8) == [[0], [1]]

    def test_greedy_within_2x_of_exhaustive(self):
        sched = make_cosine_schedule(16)
        for trial in range(20):
            rng = np.random.default_rng(9000 + trial)
            pi = rng.uniform(0.3, 0.7, 2)
            pi = pi / pi.sum()
            mu = rng.normal(scale=2.0, size=(2, 2))
            stds = rng.uniform(0.1, 0.5, 2)
            gmm = GaussianMixture(
                pi=pi, mu=mu, cov=np.stack([np.eye(2) * s**2 for s in stds])
            )
            ops = [single_step_moe(gmm, sched, 8), single_step_moe(gmm, sched, 7)]
            expansion = compose_expand(ops)
            samples = NoisySampler(gmm=gmm, sched=sched, t=8).sample(512, rng)
            greedy = choose_partition(expansion, samples, n_clusters=2, seed=trial)
            exhaustive = exhaustive_partition(expansion, samples, n_clusters=2)
            b_greedy = fit_cluster_student(expansion, greedy, samples).bound
            b_exhaustive = fit_cluster_student(expansion, exhaustive, samples).bound
            assert b_greedy <= 2.0 * b_exhaustive + 1e-12

    def test_identical_groups_found_by_both(self, sched32):
        distinct = _two_mode()
        degenerate = GaussianMixture(
            pi=[0.5, 0.5],
            mu=[[0.3, 0.1], [0.3, 0.1]],
            cov=np.stack([0.2 * np.eye(2)] * 2),
        )
        # first op has two distinct experts, second op two identical ones:
        # the four composites form two identical pairs
        ops = [single_step_moe(distinct, sched32, 10), single_step_moe(degenerate, sched32, 9)]
        expansion = compose_expand(ops)
        rng = np.random.default_rng(13)
        samples = NoisySampler(gmm=distinct, sched=sched32, t=10).sample(512, rng)
        for partition in (
            choose_partition(expansion, samples, n_clusters=2, seed=1),
            exhaustive_partition(expansion, samples, n_clusters=2),
        ):
            fit = fit_cluster_student(expansion, partition, samples)
            assert fit.bound <= 1e-12

    def test_exhaustive_is_the_bound_minimizer(self):
        # C = 4 or 6 components (a K = 2 or 3 step, then a K = 2 step): the
        # search must pick the partition whose own fit has the least bound
        sched = make_cosine_schedule(16)
        for trial in range(6):
            rng = np.random.default_rng(9100 + trial)
            mixtures = []
            for K in (2 + trial % 2, 2):
                mixtures.append(
                    GaussianMixture(
                        pi=np.full(K, 1.0 / K),
                        mu=rng.normal(scale=2.0, size=(K, 2)),
                        cov=np.stack([np.eye(2) * rng.uniform(0.1, 0.5) ** 2 for _ in range(K)]),
                    )
                )
            t = int(rng.integers(6, 13))
            ops = [single_step_moe(mixtures[0], sched, t), single_step_moe(mixtures[1], sched, t - 1)]
            expansion = compose_expand(ops)
            samples = NoisySampler(gmm=mixtures[0], sched=sched, t=t).sample(256, rng)
            n_clusters = 2 + trial // 2 % 2
            chosen = exhaustive_partition(expansion, samples, n_clusters=n_clusters)
            best = min(
                fit_cluster_student(expansion, partition, samples).bound
                for partition in gmm_reference.restricted_partitions(
                    expansion.n_experts, n_clusters
                )
            )
            got = fit_cluster_student(expansion, chosen, samples).bound
            assert got == pytest.approx(best, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("K, seed, n_clusters", [(2, 86, 2), (3, 3, 2), (3, 36, 3)])
    def test_exhaustive_choice_survives_reversed_summation(self, monkeypatch, K, seed, n_clusters):
        # C = K**2 = 4 or 9 components whose best bounds agree to rounding:
        # without the tie tolerance, summing the groups and their members in
        # reverse order changes the chosen partition in each of these cases
        sched = make_cosine_schedule(16)
        rng = np.random.default_rng(seed)
        gmm = GaussianMixture(
            pi=np.full(K, 1.0 / K),
            mu=rng.normal(scale=2.0, size=(K, 2)),
            cov=np.stack([np.eye(2) * rng.uniform(0.1, 0.5) ** 2 for _ in range(K)]),
        )
        t = int(rng.integers(3, 14))
        expansion = compose_expand([single_step_moe(gmm, sched, t), single_step_moe(gmm, sched, t - 1)])
        samples = NoisySampler(gmm=gmm, sched=sched, t=t).sample(256, rng)
        chosen = exhaustive_partition(expansion, samples, n_clusters=n_clusters)
        bound = gmm_reference._partition_bound
        monkeypatch.setattr(
            gmm_reference,
            "_partition_bound",
            lambda H, R, q, partition: bound(H, R, q, [g[::-1] for g in partition[::-1]]),
        )
        assert exhaustive_partition(expansion, samples, n_clusters=n_clusters) == chosen

    def test_exhaustive_guard(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        expansion = compose_expand(ops)
        with pytest.raises(ValueError, match="guarded"):
            exhaustive_partition(expansion, np.zeros((4, 2)), n_clusters=3)


class TestMcLoss:
    def test_identity_is_zero(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        sampler = NoisySampler(gmm=circle8, sched=sched32, t=16)
        est = mc_distillation_loss(op, op, sampler, 1000, seed=0)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_linear_case_closed_form(self, sched32):
        # scalar students around a scalar teacher: loss is
        # (alpha^2 lam + sigma^2) * (a - target)^2
        lam = 0.8
        t = 10
        gmm = GaussianMixture(pi=[1.0], mu=np.zeros((1, 1)), cov=np.full((1, 1, 1), lam))
        gating = PosteriorGating(gmm=gmm, sched=sched32, t=t)
        a_st, a_target = 0.93, 0.88
        student = MoeOperator(A=[[[a_st]]], b=[[0.0]], gating=gating, interval=(t, t))
        target = MoeOperator(A=[[[a_target]]], b=[[0.0]], gating=gating, interval=(t, t))
        sampler = NoisySampler(gmm=gmm, sched=sched32, t=t)
        est = mc_distillation_loss(student, target, sampler, 1_000_000, seed=21)
        a, s = sched32.alpha[t], sched32.sigma[t]
        closed = (a * a * lam + s * s) * (a_st - a_target) ** 2
        assert abs(est.mean - closed) <= 3.0 * est.stderr

    def test_requires_two_samples(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        sampler = NoisySampler(gmm=circle8, sched=sched32, t=16)
        with pytest.raises(ValueError):
            mc_distillation_loss(op, op, sampler, 1)

    def test_chain_target_gates_each_batch_once(self, monkeypatch, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31, 30)]
        sampler = NoisySampler(gmm=circle8, sched=sched32, t=32)
        samples = sampler.sample(256, np.random.default_rng(23))
        student = gmm_module._compress(compose_expand(ops), samples, n_clusters=8).student
        want = mc_distillation_loss(
            student, lambda z: apply_chain(ops, z), sampler, 10_000, seed=24
        )
        calls = []
        original = gmm_module.posterior_log_weights

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(gmm_module, "posterior_log_weights", counting)
        got = mc_distillation_loss(student, None, sampler, 10_000, seed=24)
        # two 8192-row chunks, three teacher steps gated once each per chunk
        # (the student and apply_chain gated them separately: 12 calls)
        assert calls == [32, 31, 30, 32, 31, 30]
        assert got == want

    def test_chain_target_needs_a_chain(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        sampler = NoisySampler(gmm=circle8, sched=sched32, t=16)
        with pytest.raises(ValueError, match="chain"):
            mc_distillation_loss(op, None, sampler, 100)


@pytest.fixture(scope="module")
def fitting_k3(sched32, circle8):
    """A circle-8 fitting set of three steps (512 components, one chunk of 1024 samples),
    its 8-cluster partition and the sampler at its input."""
    ops = [single_step_moe(circle8, sched32, t) for t in (32, 31, 30)]
    sampler = NoisySampler(gmm=circle8, sched=sched32, t=32)
    samples = sampler.sample(1024, np.random.default_rng(23))
    fitting = gmm_module._FittingSet(compose_expand(ops), samples)
    return fitting, choose_partition(fitting.expansion, fitting, n_clusters=8), sampler


@pytest.fixture(scope="module")
def student_k3(fitting_k3):
    """The student fitted on ``fitting_k3``, and the sampler at its input."""
    fitting, partition, sampler = fitting_k3
    return fit_cluster_student(fitting.expansion, partition, fitting).student, sampler


class TestMcLossMemory:
    def test_k3_loss_bits(self, student_k3):
        # frozen at ac79c37, before the student's gating was formed in row blocks
        student, sampler = student_k3
        est = mc_distillation_loss(student, None, sampler, 10_000, seed=3)
        assert (est.mean.hex(), est.stderr.hex()) == ("0x1.baf4ca5f7fe46p-21", "0x1.1eaba13565f3dp-25")

    def test_k3_traced_peak(self, student_k3):
        # each 8192-sample chunk once formed its whole (8192, 512) path product:
        # a traced peak of 38.0 MiB at ac79c37, against about 4.1 MiB in row blocks
        student, sampler = student_k3
        mc_distillation_loss(student, None, sampler, 100, seed=3)  # fills the gating caches
        tracemalloc.start()
        try:
            mc_distillation_loss(student, None, sampler, 10_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestClusterMomentsMemory:
    def test_k3_traced_peak(self, fitting_k3):
        # the chunk's whole (1024, 512, 2) expert outputs, their component-major
        # copy and its squares once lived together: a traced peak of 20.0 MiB
        # at eb2dd12, against about 5.6 MiB with one cluster's outputs at a time
        fitting, partition, _ = fitting_k3
        groups = gmm_module._validate_partition(partition, 512)
        assert len(groups) == 8 and len(list(fitting.weights())) == 1
        gmm_module._cluster_moments(fitting, groups)  # the fitting set keeps its weights
        tracemalloc.start()
        try:
            gmm_module._cluster_moments(fitting, groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestLipschitz:
    def test_affine_operator_spectral_norm(self, sched32):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(2, 2))
        gmm = GaussianMixture(pi=[1.0], mu=np.zeros((1, 2)), cov=np.eye(2)[None])
        op = MoeOperator(
            A=A[None],
            b=[[0.3, -0.1]],
            gating=PosteriorGating(gmm=gmm, sched=sched32, t=16),
            interval=(16, 16),
        )
        sampler = NoisySampler(gmm=gmm, sched=sched32, t=16)
        spectral = np.linalg.norm(A, ord=2)
        rng = np.random.default_rng(15)
        est = gmm_module._lipschitz_at(op.apply, sampler.sample(8192, rng), 1e-3, rng)
        assert est <= spectral + 1e-9
        assert est >= 0.99 * spectral

    def test_identity_operator(self, sched32):
        gmm = GaussianMixture(pi=[1.0], mu=np.zeros((1, 2)), cov=np.eye(2)[None])
        op = MoeOperator(
            A=np.eye(2)[None],
            b=np.zeros((1, 2)),
            gating=PosteriorGating(gmm=gmm, sched=sched32, t=16),
            interval=(16, 16),
        )
        sampler = NoisySampler(gmm=gmm, sched=sched32, t=16)
        rng = np.random.default_rng(16)
        est = gmm_module._lipschitz_at(op.apply, sampler.sample(256, rng), 1e-3, rng)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_circle_teacher_mid_schedule_finite(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        sampler = NoisySampler(gmm=circle8, sched=sched32, t=16)
        rng = np.random.default_rng(19)
        est = gmm_module._lipschitz_at(op.apply, sampler.sample(1024, rng), 1e-3, rng)
        assert np.isfinite(est) and est > 0.0


class TestErrorPropagation:
    def _setup(self, sched):
        gmm = _two_mode()
        op2 = single_step_moe(gmm, sched, 2)
        op1 = single_step_moe(gmm, sched, 1)
        sampler = NoisySampler(gmm=gmm, sched=sched, t=2)
        return gmm, op2, op1, sampler

    def test_exact_students_give_zero_terms(self):
        sched = make_cosine_schedule(2)
        _, op2, op1, sampler = self._setup(sched)
        merged = compose_expand([op2, op1])
        audit = error_propagation_audit(merged, sampler, n=2000, seed=17)
        for term in (audit.final, audit.merge, audit.shift, audit.stage1):
            assert term.mean <= 1e-20
        assert audit.holds

    def test_perturbed_first_stage_drives_lipschitz_term(self):
        sched = make_cosine_schedule(2)
        _, op2, op1, sampler = self._setup(sched)
        eps = 1e-3
        perturbed = MoeOperator(
            A=op2.A + eps * np.eye(2),
            b=op2.b,
            gating=op2.gating,
            interval=op2.interval,
        )
        merged = compose_expand([perturbed, op1])  # exact composition: merge error 0
        audit = error_propagation_audit(merged, sampler, n=20_000, seed=18)
        assert audit.merge.mean <= 1e-20
        assert audit.shift.mean <= 1e-20
        assert audit.stage1.mean > 0.0
        assert audit.final.mean > 0.0
        assert audit.holds

    @pytest.mark.parametrize("n", [0, 1])
    def test_requires_two_samples(self, n):
        sched = make_cosine_schedule(2)
        _, op2, op1, sampler = self._setup(sched)
        merged = compose_expand([op2, op1])
        with pytest.raises(ValueError, match="at least 2 samples"):
            error_propagation_audit(merged, sampler, n=n, seed=0)

    def test_sampler_at_another_level_rejected(self):
        sched = make_cosine_schedule(2)
        gmm, op2, op1, _ = self._setup(sched)
        merged = compose_expand([op2, op1])
        sampler = NoisySampler(gmm=gmm, sched=sched, t=1)
        message = "sampler draws at level 1, but merged starts at level 2"
        with pytest.raises(ValueError, match=message):
            error_propagation_audit(merged, sampler, n=100, seed=0)

    def test_three_stage_chain_rejected(self):
        sched = make_cosine_schedule(3)
        gmm = _two_mode()
        merged = compose_expand([single_step_moe(gmm, sched, t) for t in (3, 2, 1)])
        sampler = NoisySampler(gmm=gmm, sched=sched, t=3)
        with pytest.raises(ValueError, match="exactly two stages"):
            error_propagation_audit(merged, sampler, n=100, seed=0)

    def test_stages_must_cover_the_interval(self):
        sched = make_cosine_schedule(4)
        gmm = _two_mode()
        ops = [single_step_moe(gmm, sched, t) for t in (4, 3, 2, 1)]
        stage1 = compose_expand(ops[:2])
        expansion = compose_expand([stage1, ops[2]])  # any experts will do
        sampler = NoisySampler(gmm=gmm, sched=sched, t=4)
        # (3, 4) then (2, 2) stops short of step 1; (3, 4) then (1, 1) skips step 2
        for stage2 in (ops[2], ops[3]):
            gating = PathGating(ops=(stage1, stage2))
            merged = MoeOperator(A=expansion.A, b=expansion.b, gating=gating, interval=(1, 4))
            with pytest.raises(ValueError, match=r"then \(\d, \d\) do not cover \(1, 4\)"):
                error_propagation_audit(merged, sampler, n=100, seed=0)

    def test_merged_must_run_exactly_the_two_stages(self):
        sched = make_cosine_schedule(2)
        _, _, op1, sampler = self._setup(sched)
        one_step = MoeOperator(
            A=op1.A, b=op1.b, gating=op1.gating, interval=(1, 2)
        )  # covers both steps, but its gating runs no chain
        with pytest.raises(ValueError, match="exactly two stages"):
            error_propagation_audit(one_step, sampler, n=100, seed=0)


class TestCompressMemory:
    def test_k3_traced_peak(self, fitting_k3):
        # the chunk's whole (512, 1024) weights and their (512, 1024) cumsum once
        # lived together: a traced peak of 9.8 MiB at 7070664, against about
        # 4.8 MiB with each cluster's weights formed when it is fitted
        fitting, _, _ = fitting_k3
        gmm_module._compress(fitting.expansion, fitting.samples, n_clusters=8)  # fills the caches
        tracemalloc.start()
        try:
            gmm_module._compress(fitting.expansion, fitting.samples, n_clusters=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20


class TestSampler:
    def test_deterministic_given_seed(self, sched32, circle8):
        sampler = NoisySampler(gmm=circle8, sched=sched32, t=16)
        a = sampler.sample(100, np.random.default_rng(42))
        b = sampler.sample(100, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_terminal_marginal_is_standard_normal(self, sched32, circle8):
        # alpha_T = 0 kills the signal: z_T is exactly N(0, I)
        z = NoisySampler(gmm=circle8, sched=sched32, t=32).sample(
            50_000, np.random.default_rng(43)
        )
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(np.cov(z.T), np.eye(2), atol=0.05)

    @pytest.mark.parametrize("t", [-1, -32, 33, 100])
    def test_level_outside_schedule_rejected(self, sched32, circle8, t):
        # -1 used to draw from level 32, and 33 raised a bare IndexError at sampling
        with pytest.raises(ValueError, match=rf"t must be in \[0, 32\], got {t}$"):
            NoisySampler(gmm=circle8, sched=sched32, t=t)

    @pytest.mark.parametrize("t", [0, 32])
    def test_both_ends_of_schedule_accepted(self, sched32, circle8, t):
        z = NoisySampler(gmm=circle8, sched=sched32, t=t).sample(4, np.random.default_rng(44))
        assert z.shape == (4, 2)

    @pytest.mark.parametrize("n", [1, 7, 8192])
    @pytest.mark.parametrize("K", [1, 3, 8])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_fancy_index_reference(self, sched32, d, K, n):
        gmm = _random_mixture(np.random.default_rng(100 * d + K), K, d)
        sampler = NoisySampler(gmm=gmm, sched=sched32, t=9)
        got = sampler.sample(n, np.random.default_rng(n))
        want = noisy_sample(sampler, n, np.random.default_rng(n))
        assert got.shape == (n, d)
        assert got.tobytes() == want.tobytes()


class TestGatingOnce:
    def test_distill_chain_gates_each_fitting_set_once(self, monkeypatch, sched32, circle8):
        calls = []
        original = gmm_module.posterior_log_weights

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(gmm_module, "posterior_log_weights", counting)
        distill_chain(circle8, sched32, t_hi=20, t_lo=17, n_fit=256, seed=3)
        # step s gates a student nested s + 1 teacher steps deep, then the
        # new step: s + 2 posterior calls per chunk, and 256 samples are one chunk
        assert len(calls) == sum(s + 2 for s in range(3))

    @staticmethod
    def _assert_same_fit(got, want):
        for name in ("bound", "bias", "variance"):
            assert np.float64(getattr(got, name)).tobytes() == np.float64(
                getattr(want, name)
            ).tobytes(), name
        assert got.ridge_flagged == want.ridge_flagged
        assert got.student.interval == want.student.interval
        assert got.student.A.shape == want.student.A.shape
        assert got.student.A.tobytes() == want.student.A.tobytes()
        assert got.student.b.tobytes() == want.student.b.tobytes()
        assert (
            got.student.gating.membership.tobytes()
            == want.student.gating.membership.tobytes()
        )

    @pytest.mark.parametrize("K, steps, n_clusters", [(8, 3, 8), (3, 2, 3), (8, 1, 8)])
    def test_compress_equals_partition_then_fit_across_chunks(
        self, monkeypatch, sched32, K, steps, n_clusters
    ):
        monkeypatch.setattr(gmm_module, "_chunk_size", lambda n_components: 100)
        gmm = make_circle_mixture(K)
        ops = [single_step_moe(gmm, sched32, t) for t in range(20, 20 - steps, -1)]
        expansion = compose_expand(ops)
        samples = NoisySampler(gmm=gmm, sched=sched32, t=20).sample(
            350, np.random.default_rng(21)
        )
        fit = gmm_module._compress(expansion, samples, n_clusters=n_clusters, seed=5)
        partition = choose_partition(expansion, samples, n_clusters=n_clusters, seed=5)
        self._assert_same_fit(fit, fit_cluster_student(expansion, partition, samples))
        assert fit.student.gating.membership.shape == (K**steps, len(partition))
        # each chunk's component-major weights have the bits of gating that
        # chunk directly, transposed
        chunks = list(gmm_module._FittingSet(expansion, samples).weights())
        assert [z.shape[0] for z, _ in chunks] == [100, 100, 100, 50]
        for z, rows in chunks:
            got = rows(np.arange(K**steps))
            assert got.tobytes() == expansion.gating.weights(z).T.tobytes()

    def test_propagate_item_gates_audit_stages_once(self, monkeypatch, tmp_path):
        calls = []
        in_audit = []
        original = gmm_module.posterior_log_weights
        audit = report_module.error_propagation_audit

        def counting(*args, **kwargs):
            calls.append(bool(in_audit))
            return original(*args, **kwargs)

        def marked_audit(*args, **kwargs):
            in_audit.append(True)
            try:
                return audit(*args, **kwargs)
            finally:
                in_audit.pop()

        monkeypatch.setattr(gmm_module, "posterior_log_weights", counting)
        monkeypatch.setattr(report_module, "error_propagation_audit", marked_audit)
        cfg = ExperimentConfig(
            kind="gmm-propagate", T=10, seed=0, n_fit=1024, n_mc=3000, out_dir=tmp_path
        )
        report_module.run_gmm_propagate(cfg)
        # the audit read both stage outputs off merged's trajectory: 10 fewer
        # calls than gating stage1 and stage2 again on their own (88 and 50)
        assert (len(calls), sum(calls)) == (78, 40)

    def test_nested_students_compress_like_partition_then_fit(self, monkeypatch, sched32, circle8):
        monkeypatch.setattr(gmm_module, "_chunk_size", lambda n_components: 64)
        student = distill_chain(circle8, sched32, t_hi=12, t_lo=10, n_fit=200, seed=4)
        expansion = compose_expand([student, single_step_moe(circle8, sched32, 9)])
        samples = NoisySampler(gmm=circle8, sched=sched32, t=12).sample(
            300, np.random.default_rng(22)
        )
        fit = gmm_module._compress(expansion, samples, n_clusters=8, seed=6)
        partition = choose_partition(expansion, samples, n_clusters=8, seed=6)
        self._assert_same_fit(fit, fit_cluster_student(expansion, partition, samples))


class TestApplyAlongChain:
    def test_bits_match_apply_and_apply_chain(self, sched32, circle8):
        student = distill_chain(circle8, sched32, t_hi=12, t_lo=10, n_fit=200, seed=4)
        chain = [student, single_step_moe(circle8, sched32, 9), single_step_moe(circle8, sched32, 8)]
        expansion = compose_expand(chain)
        samples = NoisySampler(gmm=circle8, sched=sched32, t=12).sample(
            300, np.random.default_rng(25)
        )
        merged = gmm_module._compress(expansion, samples, n_clusters=8, seed=7).student
        z = samples[:150]
        for op in (expansion, merged, student):
            out, points = op.apply_along_chain(z)
            assert out.tobytes() == op.apply(z).tobytes()
            ops = op.gating.ops
            assert len(points) == len(ops)
            for j, point in enumerate(points):
                assert point.tobytes() == apply_chain(ops[: j + 1], z).tobytes()
        stages, points = expansion.gating.trajectory(z)
        for got, want in zip(stages, expansion.gating.stage_weights(z), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_posterior_gated_operator_has_no_chain(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        with pytest.raises(ValueError, match="chain"):
            op.apply_along_chain(np.zeros((3, 2)))


def _nan_as_one(x):
    # NumPy does not fix the sign of a NaN sum (its add loops pick it
    # differently by array length), so NaN results are compared as NaN
    return np.where(np.isnan(x), np.nan, x).tobytes()


@st.composite
def _rowsum_inputs(draw):
    width = draw(st.one_of(st.integers(1, 300), st.just(4096)))
    lead = draw(st.sampled_from([(1,), (2,), (5,), (2, 3)] if width < 4096 else [(1,), (2,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base_shape = lead[:-1] + (2 * lead[-1] + 1, 2 * width + 3)
    base = rng.standard_normal(base_shape) * 10.0 ** rng.integers(-12, 13, size=base_shape)
    special = draw(st.sampled_from([0.0, 0.01, 0.3]))
    mask = rng.random(base_shape) < special
    base[mask] = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0], size=int(mask.sum()))
    rows = base.reshape(-1, base_shape[-1])
    rows[rng.random(rows.shape[0]) < 0.2] = -0.0  # NumPy sums these to +0.0
    view = draw(st.sampled_from(["contiguous", "column_step", "reversed", "offset", "transposed"]))
    n = lead[-1]
    if view == "contiguous":
        return np.ascontiguousarray(base[..., :n, :width])
    if view == "column_step":
        return base[..., 1 : 2 * n + 1 : 2, 1 : 2 * width + 1 : 2]
    if view == "reversed":
        return base[..., n - 1 :: -1, width - 1 :: -1]
    if view == "offset":
        return base[..., 1 : n + 1, 3 : width + 3]
    # the last axis is not the innermost one: NumPy iterates another order
    return np.ascontiguousarray(np.swapaxes(base[..., :n, :width], -1, -2)).swapaxes(-1, -2)


class TestRowsum:
    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(_rowsum_inputs())
    def test_matches_numpy_sum_bit_for_bit(self, a):
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.sum(a, axis=-1)
            got = gmm_module._rowsum(a)
        assert got.shape == want.shape
        assert _nan_as_one(got) == _nan_as_one(want)

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 128, 129, 300])
    def test_negative_zero_rows_sum_to_positive_zero(self, width):
        got = gmm_module._rowsum(np.full((3, width), -0.0))
        assert got.tobytes() == np.zeros(3).tobytes()


@st.composite
def _lse_inputs(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 10))
    magnitude = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)  # 1e-3 .. 1e4
    a = draw(hnp.arrays(np.float64, (n, k), elements=magnitude))
    a = np.where(draw(hnp.arrays(np.bool_, (n, k))), -a, a)
    # ties at the row max, and rows whose entries are all equal
    a = np.where(draw(hnp.arrays(np.bool_, (n, k))), a.max(axis=1, keepdims=True), a)
    flat = draw(hnp.arrays(np.bool_, n))
    a[flat] = a[flat, :1]
    return a


class TestLogSumExp:
    # ``_logsumexp`` reduces axis 0 of a (K, n) array: it gets each case transposed
    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(_lse_inputs())
    @example(np.array([[1e4]]))
    @example(np.array([[-1e-3], [2.5]]))
    @example(np.full((3, 8), -712.25))
    @example(np.array([[1e4, 1e4, -1e4, 1e-3], [-1e-3, -1e-3, -1e-3, -1e-3]]))
    def test_matches_scipy_bit_for_bit(self, a):
        want = scipy.special.logsumexp(a, axis=1)
        got = gmm_module._logsumexp(np.ascontiguousarray(a.T))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "row",
        [[-np.inf, -np.inf], [np.inf, 1.0], [np.inf, np.inf], [-np.inf, 0.0], [np.nan, 1.0]],
    )
    def test_non_finite_rows_match_scipy(self, row):
        a = np.array([row, [0.5, 0.25]])
        want = scipy.special.logsumexp(a, axis=1)
        assert gmm_module._logsumexp(np.ascontiguousarray(a.T)).tobytes() == want.tobytes()


def _reference_logsumexp_rows(a):
    # the per-row log-sum-exp the gating used before it ran over (K, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a[:, :1].copy()
        for j in range(1, a.shape[1]):
            np.maximum(a_max, a[:, j : j + 1], out=a_max)
        at_max = a == a_max
        e = np.exp(a - a_max)
        e[at_max] = 0.0
        s = gmm_module._rowsum(e)[:, None]
        m = gmm_module._rowsum(at_max.astype(np.float64))[:, None]
        out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~np.isfinite(out[:, 0])
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1, keepdims=True))
    return out


def _reference_posterior_log_weights(gmm, sched, t, z):
    # the per-component gating over (n, d) rows, one column of (n, K) at a time
    z2 = np.asarray(z, dtype=np.float64)
    single = z2.ndim == 1
    if single:
        z2 = z2[None, :]
    a, s = sched.alpha[t], sched.sigma[t]
    vals, vecs = gmm._eig_vals, gmm._eig_vecs
    noisy_vals = a * a * vals + s * s
    lw = np.empty((z2.shape[0], gmm.K))
    for k in range(gmm.K):
        centered = z2 - a * gmm.mu[k]
        y = centered @ vecs[k]
        quad = gmm_module._rowsum(y * y / noisy_vals[k])
        logdet = float(np.sum(np.log(noisy_vals[k])))
        lw[:, k] = np.log(gmm.pi[k]) - 0.5 * (gmm.d * gmm_module._LOG_2PI + logdet + quad)
    lw -= _reference_logsumexp_rows(lw)
    return lw[0] if single else lw


def _random_mixture(rng, K, d):
    pi = rng.random(K) + 0.05
    B = rng.standard_normal((K, d, d)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(K, 1, 1))
    cov = B @ np.transpose(B, (0, 2, 1)) + 1e-3 * np.eye(d)
    return GaussianMixture(
        pi=pi / pi.sum(),
        mu=rng.standard_normal((K, d)) * 10.0 ** rng.uniform(-1.0, 1.5),
        cov=0.5 * (cov + np.transpose(cov, (0, 2, 1))),
    )


@st.composite
def _gating_cases(draw):
    K = draw(st.integers(1, 9))
    d = draw(st.integers(1, 9))  # both sides of ``_pairwise_columns``' 8-column bound
    n = draw(st.one_of(st.just(1), st.integers(2, 16), st.integers(17, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(1, 40))
    t = draw(st.integers(1, T))
    base = rng.standard_normal((2 * n, d + 1)) * 10.0 ** rng.uniform(-2.0, 2.0)
    special = draw(st.sampled_from([0.0, 0.05]))
    rows = rng.random(2 * n) < special
    base[rows] = rng.choice([np.inf, -np.inf, 1e155, -1e155], size=(int(rows.sum()), 1))
    entries = rng.random(base.shape) < special
    base[entries] = rng.choice([np.inf, -np.inf, 1e155], size=int(entries.sum()))
    # contiguous rows, or a strided view of them
    z = base[:n, :d].copy() if draw(st.booleans()) else base[::2, 1:]
    return _random_mixture(rng, K, d), make_cosine_schedule(T), t, z


class TestPosteriorGatingOracle:
    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(_gating_cases())
    def test_matches_per_component_reference_bit_for_bit(self, case):
        gmm, sched, t, z = case
        with np.errstate(over="ignore", invalid="ignore"):  # the inf and 1e155 rows
            want = _reference_posterior_log_weights(gmm, sched, t, z)
            got = gmm_module.posterior_log_weights(gmm, sched, t, z)
            again = gmm_module.posterior_log_weights(gmm, sched, t, z)
        assert got.shape == want.shape == (z.shape[0], gmm.K)
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()
        # the constants come from the mixture's cache the second time
        assert again.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_single_row_matches_reference(self, d, seed):
        # one row is where ``vecs[k].T @ z^T`` would run BLAS gemv and change bits
        rng = np.random.default_rng(seed)
        gmm = _random_mixture(rng, 8, d)
        sched = make_cosine_schedule(10)
        z = rng.standard_normal(d) * 3.0
        for t in (1, 5, 10):
            for point in (z, z[None, :]):
                want = _reference_posterior_log_weights(gmm, sched, t, point)
                got = gmm_module.posterior_log_weights(gmm, sched, t, point)
                assert got.shape == want.shape
                assert got.flags["C_CONTIGUOUS"]
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K, d, n", [(3, 2, 250_001), (2, 8, 20_000)])
    def test_matches_reference_above_small_gemm_bound(self, K, d, n):
        # n d^2 above OpenBLAS's small-matrix bound: each component's rotation
        # runs the blocked GEMM kernel, not the small-matrix one
        assert n * d * d > gmm_module._SMALL_GEMM
        rng = np.random.default_rng(n + d)
        gmm = _random_mixture(rng, K, d)
        sched = make_cosine_schedule(10)
        z = rng.standard_normal((n, d)) * 5.0
        for t in (1, 10):
            want = _reference_posterior_log_weights(gmm, sched, t, z)
            got = gmm_module.posterior_log_weights(gmm, sched, t, z)
            assert got.tobytes() == want.tobytes()

    def test_constants_are_cached_per_schedule_and_level(self, circle8):
        sched_a, sched_b = make_cosine_schedule(8), make_cosine_schedule(8)
        first = circle8._gating_constants(sched_a, 3)
        assert circle8._gating_constants(sched_a, 3) is first
        assert circle8._gating_constants(sched_b, 3) is not first
        assert circle8._gating_constants(sched_a, 4) is not first
        assert make_circle_mixture(8)._gating_constants(sched_a, 3) is not first


@pytest.fixture(scope="module")
def expansions(sched32, circle8):
    """Expansions of two and three circle-mixture steps: 64 and 512 experts."""
    ops = [single_step_moe(circle8, sched32, t) for t in (20, 19, 18)]
    return {64: compose_expand(ops[:2]), 512: compose_expand(ops)}


def _circle_fitting_set(expansion, sched32, circle8, n, seed):
    samples = NoisySampler(gmm=circle8, sched=sched32, t=20).sample(n, np.random.default_rng(seed))
    return gmm_module._FittingSet(expansion, samples)


def _assert_same_moments(got, want):
    for name, a, b in zip(("H", "R", "qfull", "cquad"), got, want, strict=True):
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestEinsum:
    """The contractions written as matmuls have the bits of ``np.einsum(..., optimize=True)``.

    ``MoeOperator._mix`` runs ``nk,kij,nj->ni``; ``_cluster_moments`` runs
    the other three, ``cij,mj->mci`` one cluster's experts at a time, so each
    of its cases builds a fitting set and a partition whose chunk and
    clusters have exactly those shapes, and holds the moments equal to the
    gather-loop reference, which calls the optimized einsum on the whole
    expansion.
    """

    # the shapes the mixture workloads contract, per subscripts
    CASES = [
        ("nk,kij,nj->ni", [(1024, 8), (8, 2, 2), (1024, 2)]),
        ("nk,kij,nj->ni", [(3000, 8), (8, 2, 2), (3000, 2)]),
        ("nk,kij,nj->ni", [(8192, 8), (8, 2, 2), (8192, 2)]),
        ("nk,kij,nj->ni", [(1808, 8), (8, 2, 2), (1808, 2)]),
        ("nk,kij,nj->ni", [(2048, 8), (8, 2, 2), (2048, 2)]),
        ("cij,mj->mci", [(64, 2, 2), (1024, 2)]),
        ("cij,mj->mci", [(512, 2, 2), (1024, 2)]),
        ("mc,mci->mi", [(1024, 8), (1024, 8, 2)]),
        ("mc,mci->mi", [(1024, 1), (1024, 1, 2)]),
        ("mc,mci->mi", [(1024, 93), (1024, 93, 2)]),
        ("m,mi,mj->ij", [(1024,), (1024, 3), (1024, 3)]),
    ]

    @pytest.mark.parametrize("subscripts, shapes", CASES)
    def test_matches_optimized_einsum_bit_for_bit(
        self, subscripts, shapes, expansions, sched32, circle8
    ):
        seed = len(subscripts) * 1000 + shapes[0][0]
        if subscripts == "nk,kij,nj->ni":
            rng = np.random.default_rng(seed)
            w, A, z = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3) for shape in shapes)
            op = MoeOperator(
                A=A,
                b=rng.standard_normal(A.shape[:2]),
                gating=PosteriorGating(circle8, sched32, 20),
                interval=(20, 20),
            )
            want = np.einsum(subscripts, w, A, z, optimize=True) + w @ op.b
            assert op._mix(w, z).tobytes() == want.tobytes()
            return
        if subscripts == "cij,mj->mci":
            (C, _, _), (m, _) = shapes
            sizes = [C]
        elif subscripts == "mc,mci->mi":
            m, size = shapes[0]
            C = 64 if size <= 64 else 512
            sizes = [size, C - size]
        else:  # "m,mi,mj->ij", with u = [z; 1] of width d + 1 = 3
            (m,), C, sizes = shapes[0], 64, [64]
        fitting = _circle_fitting_set(expansions[C], sched32, circle8, m, seed)
        assert gmm_module._chunk_size(C) >= m  # one chunk of m rows
        bounds = np.cumsum([0, *sizes])
        groups = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        _assert_same_moments(
            gmm_module._cluster_moments(fitting, groups), cluster_moments(fitting, groups)
        )


@st.composite
def _partitions(draw, C):
    """A partition of ``range(C)`` with one empty group and up to four singletons."""
    n_labels = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, n_labels - 1), min_size=C, max_size=C))
    singles = draw(st.sets(st.integers(0, C - 1), max_size=4))
    groups = [[c for c in range(C) if labels[c] == k and c not in singles] for k in range(n_labels)]
    groups += [[c] for c in sorted(singles)]
    groups.insert(draw(st.integers(0, len(groups))), [])
    return groups


@pytest.fixture(scope="module")
def fitting64(expansions, sched32, circle8):
    return _circle_fitting_set(expansions[64], sched32, circle8, 700, 31)


@pytest.fixture(scope="module")
def fitting512(expansions, sched32, circle8):
    # more samples than one chunk holds: the moments sum over two chunks
    n = gmm_module._chunk_size(512) + 300
    return _circle_fitting_set(expansions[512], sched32, circle8, n, 32)


class TestClusterMoments:
    """Component-major moments equal the gather-loop reference byte for byte."""

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(partition=_partitions(64))
    @example(partition=[list(range(64))])
    @example(partition=[[c] for c in range(64)])
    def test_matches_gather_loop_reference(self, fitting64, partition):
        groups = gmm_module._validate_partition(partition, 64)
        _assert_same_moments(
            gmm_module._cluster_moments(fitting64, groups), cluster_moments(fitting64, groups)
        )

    @settings(PROPERTY_SETTINGS, max_examples=3)
    @given(partition=_partitions(512))
    @example(partition=[list(range(512)), []])
    @example(partition=[[c] for c in range(512)])
    def test_matches_reference_across_chunks(self, fitting512, partition):
        assert len(list(fitting512.weights())) == 2
        groups = gmm_module._validate_partition(partition, 512)
        _assert_same_moments(
            gmm_module._cluster_moments(fitting512, groups), cluster_moments(fitting512, groups)
        )


    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("chunk", [256, 8192])
    def test_matches_reference_at_other_dimensions(self, monkeypatch, d, chunk):
        # the expert-output product's inner dimension and column blocks follow d
        monkeypatch.setattr(gmm_module, "_chunk_size", lambda n_components: chunk)
        rng = np.random.default_rng(40 + d)
        gmm = _random_mixture(rng, 5, d)
        sched = make_cosine_schedule(10)
        expansion = compose_expand([single_step_moe(gmm, sched, t) for t in (6, 5)])
        samples = NoisySampler(gmm=gmm, sched=sched, t=6).sample(700, rng)
        fitting = gmm_module._FittingSet(expansion, samples)
        assert len(list(fitting.weights())) == (3 if chunk == 256 else 1)
        labels = rng.integers(0, 4, size=25)
        groups = [np.flatnonzero(labels == k) for k in range(5)]  # group 4 is empty
        _assert_same_moments(
            gmm_module._cluster_moments(fitting, groups), cluster_moments(fitting, groups)
        )


    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_reference_with_zero_weight_samples(self, d):
        # cluster 0 weighs exactly nothing on some samples, which ``cquad`` skips;
        # cluster 1 weighs something on every sample
        rng = np.random.default_rng(60 + d)
        n, C = 300, 12
        w = rng.random((n, C)) + 0.01
        w[:, :4][rng.random((n, 4)) < 0.5] = 0.0
        w[:40, :4] = 0.0
        expansion = MoeOperator(
            A=rng.standard_normal((C, d, d)),
            b=rng.standard_normal((C, d)),
            gating=_TableGating(ops=(), tables=(w,)),
            interval=(1, 1),
        )
        # the table gating reads a sample's row from its first coordinate
        samples = np.column_stack([np.arange(n, dtype=np.float64), rng.standard_normal((n, d - 1))])
        fitting = gmm_module._FittingSet(expansion, samples)
        groups = [np.arange(4), np.arange(4, C)]
        _assert_same_moments(
            gmm_module._cluster_moments(fitting, groups), cluster_moments(fitting, groups)
        )


class TestSolveNormal:
    """The direct LAPACK calls have the bits, ridge flag and errors of the checked wrappers."""

    @staticmethod
    def _system(d, seed, zero_column=None):
        rng = np.random.default_rng(seed)
        u = np.column_stack([rng.normal(size=(50, d)), np.ones(50)])
        if zero_column is not None:
            # a coordinate that is 0 on every sample zeroes its row and column of H
            u[:, zero_column] = 0.0
        return (u.T * rng.random(50)) @ u, rng.normal(size=(d, d + 1))

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_matches_cho_solve_bit_for_bit(self, d, rank_deficient):
        for seed in range(5):
            H, R = self._system(d, seed, seed % d if rank_deficient else None)
            M, ridged = gmm_module._solve_normal(H, R)
            M_ref, ridged_ref = solve_normal(H, R)
            assert ridged is ridged_ref is rank_deficient
            assert M.tobytes() == M_ref.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_errors_match_cho_solve(self, d):
        H, R = self._system(d, d)
        # the ridged factor fails too
        for solve in (gmm_module._solve_normal, solve_normal):
            with pytest.raises(np.linalg.LinAlgError):
                solve(-H, R)
        # a non-finite entry anywhere, even in the triangle the factor never reads
        for bad in (np.nan, np.inf):
            R_bad = R.copy()
            R_bad[-1, -1] = bad
            cases = [(H, R_bad)]
            for where in ((0, 0), (d, 0)):
                H_bad = H.copy()
                H_bad[where] = bad
                cases.append((H_bad, R))
            for solve in (gmm_module._solve_normal, solve_normal):
                for H_case, R_case in cases:
                    with pytest.raises(ValueError, match="infs or NaNs"):
                        solve(H_case, R_case)


def _kmeans_input(C, seed, zero_masses):
    # clustered points with exact copies; with ``zero_masses`` about half the
    # points weigh nothing, so some clusters hold no mass and are re-seeded
    rng = np.random.default_rng(seed)
    points = 3.0 * rng.normal(size=(4, 6))[rng.integers(0, 4, C)] + rng.normal(size=(C, 6))
    points[rng.random(C) < 0.2] = points[0]
    masses = rng.random(C)
    if zero_masses:
        masses[1:][rng.random(C - 1) < 0.5] = 0.0
    return points, masses / masses.sum()


class TestWeightedKmeans:
    """Seeding by running minimum and sorted-slice updates keep the mask loop's results.

    The centroids are compared byte for byte: a cluster's mass and weighted
    sum must add its members in the mask loop's order, which the labels
    alone do not show.
    """

    @pytest.mark.parametrize("C", [4, 27, 64, 512])
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_matches_mask_loop_reference(self, C, k):
        for seed in range(5):
            for zero_masses in (False, True):
                points, masses = _kmeans_input(C, seed, zero_masses)
                labels, centroids = gmm_module._weighted_kmeans(points, masses, k, seed)
                want_labels, want_centroids = weighted_kmeans(points, masses, k, seed)
                assert labels.tolist() == want_labels.tolist()
                assert centroids.tobytes() == want_centroids.tobytes()

    @pytest.mark.parametrize("C, k", [(4, 2), (4, 8), (27, 8)])
    def test_reseeded_clusters_match_reference(self, C, k):
        reseeded = []
        for seed in range(5):
            points, masses = _kmeans_input(C, seed, zero_masses=True)
            labels, centroids = gmm_module._weighted_kmeans(points, masses, k, seed)
            want_labels, want_centroids = weighted_kmeans(points, masses, k, seed, reseeded)
            assert labels.tolist() == want_labels.tolist()
            assert centroids.tobytes() == want_centroids.tobytes()
        assert reseeded


class TestExpertOutputBlocks:
    """A column block of the expert-output product has the bits of the one-call product.

    ``_cluster_moments`` forms ``z @ At[:, idx, :]`` per cluster; the
    gather-loop reference takes the ``idx`` columns of ``z @ At`` over the
    whole expansion.  The inner dimension is d, so there is no sum for the
    column count to reorder, on either side of OpenBLAS's small-matrix bound:
    with M N K = m n d^2, the blocks at C = 512, at C = 64 from d = 2 and at
    C = 8 from d = 4 lie on both sides of it.
    """

    @pytest.mark.parametrize("C", [1, 8, 64, 512])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_blocks_match_one_product_bit_for_bit(self, d, C):
        rng = np.random.default_rng(100 * d + C)
        A = rng.standard_normal((C, d, d)) * 10.0 ** rng.uniform(-3, 3, size=(C, 1, 1))
        At = A.transpose(2, 0, 1)
        sizes = sorted({n for n in (1, 2, 7, C // 8, C // 2, C) if 1 <= n <= C})
        for m in (1, 3, 245, 1024, 8192):
            if m * C * d > 2**23:  # a one-call product above 64 MiB
                continue
            z = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3)
            want = (z @ At.reshape(d, C * d)).reshape(m, C, d)
            for n in sizes:
                idx = np.sort(rng.choice(C, size=n, replace=False))
                got = (z @ At[:, idx, :].reshape(d, n * d)).reshape(m, n, d)
                assert got.tobytes() == want[:, idx, :].tobytes(), (m, n)


@dataclass(frozen=True, eq=False)
class _TableGating(PathGating):
    """Stage weights read from fixed tables, at the row a sample's first coordinate names."""

    tables: tuple = ()

    def stage_weights(self, z2):
        rows = z2[:, 0].astype(np.intp)
        return [table[rows] for table in self.tables]


def _table_fitting_set(stages, membership=None):
    """A fitting set over ``len(stages[0])`` samples whose gating returns ``stages``."""
    n = stages[0].shape[0]
    C = int(np.prod([w.shape[1] for w in stages]))
    expansion = MoeOperator(
        A=np.zeros((C, 1, 1)),
        b=np.zeros((C, 1)),
        gating=_TableGating(ops=(), membership=membership, tables=tuple(stages)),
        interval=(1, 1),
    )
    return gmm_module._FittingSet(expansion, np.arange(n, dtype=np.float64)[:, None])


class TestFittingSetLayout:
    """The fitting set forms component-major weights with the bits of the sample-major gating."""

    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(data=st.data())
    def test_chunks_are_the_transposed_gating_weights(self, data):
        stages = data.draw(_stage_weights())
        stages = stages[: data.draw(st.integers(1, len(stages)))]  # 1 to 3 stages
        n = stages[0].shape[0]
        C = int(np.prod([w.shape[1] for w in stages]))
        membership = None
        if data.draw(st.booleans()):
            labels = np.random.default_rng(C).integers(0, 3, size=C)
            membership = (labels[:, None] == np.arange(3)).astype(np.float64)
        width = C if membership is None else 3
        # a cluster's components: sorted, as the partition gives them, or any subset
        idx = np.array(data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width)))
        if data.draw(st.booleans()):
            idx = np.unique(idx)
        chunk = data.draw(st.integers(1, n + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gmm_module, "_chunk_size", lambda n_components: chunk)
            fitting = _table_fitting_set(stages, membership)
            gating = fitting.expansion.gating
            chunks = list(fitting.weights())
            assert [z.shape[0] for z, _ in chunks] == [min(chunk, n - lo) for lo in range(0, n, chunk)]
            for z, rows in chunks:
                want = gating.weights(z).T
                assert want.shape == (width, z.shape[0])
                for sel in (idx, np.arange(width)):
                    got = rows(sel)
                    assert got.flags["C_CONTIGUOUS"]
                    # ``.T`` has the strides of the fancy gather ``want[sel].T``
                    assert got.T.strides == want[sel].T.strides
                    assert got.tobytes() == want[sel].tobytes()

    @pytest.mark.parametrize("chunk", [37, 1024])
    @pytest.mark.parametrize("C", [1, 8, 64, 512])
    def test_component_masses_sum_sample_by_sample(self, monkeypatch, C, chunk):
        monkeypatch.setattr(gmm_module, "_chunk_size", lambda n_components: chunk)
        rng = np.random.default_rng(C)
        n = 1000
        w = rng.random((n, C)) * 10.0 ** rng.integers(-12, 1, size=(n, C))
        w[rng.random(n) < 0.1] = 0.0
        fitting = _table_fitting_set([w])
        want = np.zeros(C)
        for lo in range(0, n, chunk):
            want += np.sum(w[lo : lo + chunk], axis=0)
        assert gmm_module._component_masses(fitting).tobytes() == (want / n).tobytes()


@st.composite
def _stage_weights(draw):
    n = draw(st.integers(1, 40))
    # at most 64 x 8 x 8 products, as in a third composed step of the circle mixture
    widths = [draw(st.integers(1, 64)), *draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    stages = []
    for k in widths:
        w = rng.random((n, k)) * 10.0 ** rng.integers(-300, 1, size=(n, k))
        w[rng.random((n, k)) < zeros] = 0.0
        stages.append(w)
    stages[draw(st.integers(0, len(stages) - 1))][rng.random(n) < 0.2] = 0.0  # whole rows
    return stages  # gating weights are never -0.0


class TestCombine:
    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(_stage_weights())
    def test_outer_products_match_broadcast_product_bit_for_bit(self, stages):
        want = stages[0]
        for stage_w in stages[1:]:
            want = (want[:, :, None] * stage_w[:, None, :]).reshape(want.shape[0], -1)
        got = PathGating(ops=()).combine(stages)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestStudentGatingBlocks:
    """A student's gating sums the path products by cluster in row blocks, with the bits of one call."""

    # stage widths per component count C
    WIDTHS = {8: [2, 4], 27: [3, 3, 3], 64: [8, 8], 512: [8, 8, 8], 4096: [8, 8, 8, 8]}

    @pytest.mark.parametrize("K", [2, 3, 8, 16])
    @pytest.mark.parametrize("C", sorted(WIDTHS))
    def test_blocks_match_one_product_bit_for_bit(self, monkeypatch, C, K):
        rows = gmm_module._SMALL_GEMM // (C * K) + 1
        # the smallest row count above OpenBLAS's small-matrix bound
        assert (rows - 1) * C * K <= 100**3 < rows * C * K
        rng = np.random.default_rng(C * 100 + K)
        labels = rng.permutation(np.arange(C) % K)  # every cluster holds a component
        gating = PathGating(ops=(), membership=(labels[:, None] == np.arange(K)).astype(np.float64))
        calls = []
        matmul = np.matmul

        def spy(a, b, out):
            calls.append(a.shape[0])
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        ns = {2 * rows - 1, 2 * rows, 1808, 3000, 8192}
        ns |= {rows * j + r for j in (2, 3, 7) for r in (1, 2, 7)}
        for n in sorted(ns):
            stages = []
            for k in self.WIDTHS[C]:
                w = rng.random((n, k))
                w[w < 0.1] = 0.0
                stages.append(w)
            want = gmm_module._outer(stages) @ gating.membership
            calls.clear()
            got = gating.combine(stages)
            assert got.tobytes() == want.tobytes(), n
            assert sum(calls) == n
            if n < 2 * rows:
                assert calls == [n]
            else:
                assert calls == [rows] * (n // rows - 1) + [rows + n % rows]
                assert all(m * C * K > 100**3 for m in calls)


_MIXTURE_TEXT = """K 2
d 2
pi 0.25 0.75
component 1
mu 1 2
Lambda 1 0
Lambda 0 1
component 2
mu -1 0.5
Lambda 2 0.5
Lambda 0.5 1
"""


@st.composite
def _mixtures(draw):
    K = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    raw = draw(hnp.arrays(np.float64, K, elements=st.floats(0.05, 1.0)))
    mu = draw(hnp.arrays(np.float64, (K, d), elements=st.floats(-1e6, 1e6)))
    B = draw(hnp.arrays(np.float64, (K, d, d), elements=st.floats(-10.0, 10.0)))
    cov = B @ np.transpose(B, (0, 2, 1)) + 1e-3 * np.eye(d)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    return GaussianMixture(pi=raw / raw.sum(), mu=mu, cov=cov)


class TestMixtureFile:
    def test_reference_text_loads(self, tmp_path):
        path = tmp_path / "two.mix"
        path.write_text(_MIXTURE_TEXT + "# trailing comment\n")
        gmm = read_mixture(path)
        assert (gmm.K, gmm.d) == (2, 2)
        np.testing.assert_array_equal(gmm.mu, [[1.0, 2.0], [-1.0, 0.5]])

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("d 2\n", "d 3\n", "line 5 .*mu has 2 entries, expected 3"),
            ("d 2\n", "d 2\nK 2\n", "line 3 .*repeated K line"),
            ("d 2\n", "d 2\nd 2\n", "line 3 .*repeated d line"),
            ("component 1\n", "pi 0.5 0.5\ncomponent 1\n", "line 4 .*repeated pi line"),
            ("component 1\nmu 1 2\n", "mu 1 2\ncomponent 1\n", "line 4 .*outside a component"),
            ("Lambda 0 1\ncomponent 2\nmu -1 0.5\n", "Lambda 0 1\nmu -1 0.5\ncomponent 2\n",
             "line 8 .*second mu row in component 1"),
            ("component 2\n", "component 3\n", "line 8 .*expected component 2"),
            ("Lambda 0 1\ncomponent 2", "component 2", "line 4: component 1 needs .* got 1 and 1"),
            ("pi 0.25 0.75", "pi 0.25 0.25 0.5", "line 3 .*pi has 3 entries, expected 2"),
        ],
    )
    def test_malformed_file_names_the_line(self, tmp_path, old, new, message):
        assert _MIXTURE_TEXT.count(old) == 1
        path = tmp_path / "bad.mix"
        path.write_text(_MIXTURE_TEXT.replace(old, new))
        with pytest.raises(ValueError, match=message):
            read_mixture(path)

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(_mixtures())
    def test_write_read_round_trip(self, gmm):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.mix"
            write_mixture(gmm, path)
            back = read_mixture(path)
        for name in ("pi", "mu", "cov"):
            assert getattr(back, name).shape == getattr(gmm, name).shape
            assert getattr(back, name).tobytes() == getattr(gmm, name).tobytes(), name
