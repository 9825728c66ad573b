import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from merge_planner import gmm as gmm_module
from merge_planner import report as report_module
from merge_planner.gmm import (
    AggregatedGating,
    GaussianMixture,
    MoeOperator,
    NoisySampler,
    PosteriorGating,
    apply_chain,
    choose_partition,
    compose_expand,
    distill_chain,
    error_propagation_audit,
    estimate_lipschitz,
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
            AggregatedGating(base=expansions[0].gating, membership=np.ones((64, 1)))
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
            greedy = choose_partition(
                expansion, samples, "greedy_affine", n_clusters=2, seed=trial
            )
            exhaustive = choose_partition(
                expansion, samples, "exhaustive", n_clusters=2
            )
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
        for method in ("greedy_affine", "exhaustive"):
            partition = choose_partition(expansion, samples, method, n_clusters=2, seed=1)
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
            chosen = choose_partition(expansion, samples, "exhaustive", n_clusters=n_clusters)
            best = min(
                fit_cluster_student(expansion, partition, samples).bound
                for partition in gmm_module._restricted_partitions(
                    expansion.n_experts, n_clusters
                )
            )
            got = fit_cluster_student(expansion, chosen, samples).bound
            assert got == pytest.approx(best, rel=1e-9, abs=0.0)

    def test_exhaustive_guard(self, sched32, circle8):
        ops = [single_step_moe(circle8, sched32, t) for t in (32, 31)]
        expansion = compose_expand(ops)
        with pytest.raises(ValueError, match="guarded"):
            choose_partition(expansion, np.zeros((4, 2)), "exhaustive", n_clusters=3)

    def test_unknown_method(self, sched32, circle8):
        expansion = compose_expand([single_step_moe(circle8, sched32, 16)])
        with pytest.raises(ValueError, match="unknown"):
            choose_partition(expansion, np.zeros((4, 2)), "fancy", n_clusters=2)


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
        est = estimate_lipschitz(op, sampler, 8192, scale=1e-3, seed=15)
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
        est = estimate_lipschitz(op, sampler, 256, seed=16)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_circle_teacher_mid_schedule_finite(self, sched32, circle8):
        op = single_step_moe(circle8, sched32, 16)
        sampler = NoisySampler(gmm=circle8, sched=sched32, t=16)
        est = estimate_lipschitz(op, sampler, 1024, seed=19)
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
        audit = error_propagation_audit(
            op2, op1, merged, [op2, op1], sampler, n=2000, seed=17
        )
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
        audit = error_propagation_audit(
            perturbed, op1, merged, [op2, op1], sampler, n=20_000, seed=18
        )
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
            error_propagation_audit(op2, op1, merged, [op2, op1], sampler, n=n, seed=0)

    def test_interval_mismatch_rejected(self):
        sched = make_cosine_schedule(4)
        gmm = _two_mode()
        ops = [single_step_moe(gmm, sched, t) for t in (4, 3, 2, 1)]
        stage1 = compose_expand(ops[:2])
        stage2 = compose_expand(ops[2:])
        bad_merged = compose_expand(ops[:2])  # covers only half
        sampler = NoisySampler(gmm=gmm, sched=sched, t=4)
        with pytest.raises(ValueError, match="cover"):
            error_propagation_audit(
                stage1, stage2, bad_merged, ops, sampler, n=100, seed=0
            )

    def test_merged_must_run_exactly_the_two_stages(self):
        sched = make_cosine_schedule(2)
        gmm, op2, op1, sampler = self._setup(sched)
        twin = single_step_moe(gmm, sched, 2)  # equal to op2, but another object
        one_step = MoeOperator(
            A=op1.A, b=op1.b, gating=op1.gating, interval=(1, 2)
        )  # covers both steps, but its gating runs no chain
        for merged in (compose_expand([twin, op1]), one_step):
            with pytest.raises(ValueError, match=r"exactly \(stage1, stage2\)"):
                error_propagation_audit(op2, op1, merged, [op2, op1], sampler, n=100, seed=0)


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

    @pytest.mark.parametrize(
        "K, steps, method, n_clusters",
        [(8, 3, "greedy_affine", 8), (3, 2, "exhaustive", 3), (8, 1, "greedy_affine", 8)],
    )
    def test_compress_equals_partition_then_fit_across_chunks(
        self, monkeypatch, sched32, K, steps, method, n_clusters
    ):
        monkeypatch.setattr(gmm_module, "_chunk_size", lambda n_components: 100)
        gmm = make_circle_mixture(K)
        ops = [single_step_moe(gmm, sched32, t) for t in range(20, 20 - steps, -1)]
        expansion = compose_expand(ops)
        samples = NoisySampler(gmm=gmm, sched=sched32, t=20).sample(
            350, np.random.default_rng(21)
        )
        fit = gmm_module._compress(
            expansion, samples, method=method, n_clusters=n_clusters, seed=5
        )
        partition = choose_partition(
            expansion, samples, method=method, n_clusters=n_clusters, seed=5
        )
        self._assert_same_fit(fit, fit_cluster_student(expansion, partition, samples))
        assert fit.student.gating.membership.shape == (K**steps, len(partition))
        # each chunk's weights have the bits of gating that chunk directly
        chunks = list(gmm_module._FittingSet(expansion, samples).weights())
        assert [z.shape[0] for z, _ in chunks] == [100, 100, 100, 50]
        for z, w in chunks:
            assert w.tobytes() == expansion.gating.weights(z).tobytes()

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
            ops = op.gating.base.ops if op is not expansion else op.ops
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
    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(_lse_inputs())
    @example(np.array([[1e4]]))
    @example(np.array([[-1e-3], [2.5]]))
    @example(np.full((3, 8), -712.25))
    @example(np.array([[1e4, 1e4, -1e4, 1e-3], [-1e-3, -1e-3, -1e-3, -1e-3]]))
    def test_matches_scipy_bit_for_bit(self, a):
        want = scipy.special.logsumexp(a, axis=1, keepdims=True)
        got = gmm_module._logsumexp_rows(a)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "row",
        [[-np.inf, -np.inf], [np.inf, 1.0], [np.inf, np.inf], [-np.inf, 0.0], [np.nan, 1.0]],
    )
    def test_non_finite_rows_match_scipy(self, row):
        a = np.array([row, [0.5, 0.25]])
        want = scipy.special.logsumexp(a, axis=1, keepdims=True)
        assert gmm_module._logsumexp_rows(a).tobytes() == want.tobytes()


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
