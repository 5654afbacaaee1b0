"""Core math: exact KL, Fisher information and trace, sampled KL against the penalty."""

import math

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc.models import DecoderModel
from fisherjscc.robustness import (_expected_kl_rows, fisher_matrix, fisher_trace,
                                   fisher_trace_node, kl_categorical)
from fisherjscc.rng import CounterRng

from _oracles import (finite_diff_grad, finite_diff_hessian, kl_reference, max_rel_err,
                      per_class_fisher, per_class_fisher_matrix)


def random_decoder(seed: int, repr_dim: int = 4, classes: int = 3,
                   hidden=(8,), spread: float = 1.0) -> DecoderModel:
    decoder = DecoderModel(repr_dim, classes, hidden=hidden, seed=seed)
    rng = CounterRng(seed * 7 + 1)
    for name, tensor in decoder.params.items():
        tensor.data += spread * rng.normals(tensor.data.size).reshape(tensor.data.shape)
    return decoder


class TestKlCategorical:
    def test_identical_distributions_zero(self):
        assert kl_categorical([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_categorical([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_matches_fsum_reference(self):
        rng = CounterRng(61)
        for _ in range(25):
            p = rng.uniforms(5) + 1e-3
            p /= p.sum()
            q = rng.uniforms(5) + 1e-3
            q /= q.sum()
            assert kl_categorical(p, q) == pytest.approx(kl_reference(p, q), rel=1e-13)

    def test_zero_mass_entries_clamped(self):
        value = kl_categorical([0.5, 0.5, 0.0], [0.5, 0.0, 0.5])
        assert value == pytest.approx(0.5 * (math.log(0.5) - math.log(1e-12)), rel=1e-12)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            kl_categorical([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_categorical([0.5, 0.5], [0.7, 0.2])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            kl_categorical([1.1, -0.1], [0.5, 0.5])

    def test_nonnegative_on_posteriors(self):
        decoder = random_decoder(3)
        rng = CounterRng(83)
        for _ in range(50):
            p = decoder.decode(rng.normals(4))[0]
            q = decoder.decode(rng.normals(4))[0]
            assert kl_categorical(p, q) >= 0.0


class TestFisherTrace:
    def test_uniform_decoder_zero_trace(self):
        decoder = DecoderModel(4, 3, hidden=(8,), seed=0)
        for name, tensor in decoder.params.items():
            tensor.data[:] = 0.0
        z = np.array([0.5, -1.0, 2.0, 0.1])
        assert fisher_trace(decoder, z) == 0.0
        assert not fisher_matrix(decoder, z).any()

    def test_linear_softmax_analytic_formula(self):
        """Tr(I) for a linear decoder equals sum_y q_y ||W_y - W q||^2."""
        decoder = DecoderModel(3, 4, hidden=(), seed=7)
        rng = CounterRng(70)
        decoder.params["W0"].data += rng.normals(12).reshape(3, 4)
        decoder.params["b0"].data += rng.normals(4) * 0.3
        z = rng.normals(3)
        weight = decoder.params["W0"].data
        q = decoder.decode(z)[0]
        mean_column = weight @ q
        expected = sum(q[y] * np.sum((weight[:, y] - mean_column) ** 2) for y in range(4))
        assert fisher_trace(decoder, z) == pytest.approx(expected, rel=1e-12)

    def test_trace_equals_negative_laplacian_of_expected_log_posterior(self):
        """Expected negative Hessian identity, finite-difference oracle."""
        decoder = random_decoder(5, spread=0.5)
        z = CounterRng(91).normals(4) * 0.5
        weights = decoder.decode(z)[0]

        def expected_log_posterior(point):
            logq = np.log(decoder.decode(point)[0])
            return float(np.sum(weights * logq))

        hessian = finite_diff_hessian(expected_log_posterior, z.copy(), step=1e-4)
        laplacian = -float(np.trace(hessian))
        trace = fisher_trace(decoder, z)
        assert abs(trace - laplacian) / max(abs(laplacian), 1e-12) <= 1e-3

    def test_trace_nonnegative_and_matches_matrix_diagonal(self):
        for seed in range(8):
            decoder = random_decoder(seed + 10)
            z = CounterRng(seed).normals(4)
            trace = fisher_trace(decoder, z)
            assert trace >= 0.0
            assert abs(trace - np.trace(fisher_matrix(decoder, z))) <= 1e-10

    def test_trace_node_value_matches_single_point(self):
        decoder = random_decoder(33)
        z = CounterRng(44).normals(8).reshape(2, 4)
        node = fisher_trace_node(decoder, ad.Tensor(z))
        for i in range(2):
            reference, _, _ = per_class_fisher(decoder, ad.Tensor(z[i:i + 1]))
            assert node.data[i] == pytest.approx(reference.data[0], rel=1e-12)

    def test_trace_gradient_wrt_parameters(self):
        """d Tr(I)/d theta via the recorded graph vs finite differences."""
        decoder = random_decoder(21, repr_dim=2, classes=3, hidden=(6,), spread=0.5)
        z = CounterRng(55).normals(2).reshape(1, 2)

        def trace_value():
            return float(fisher_trace_node(decoder, ad.Tensor(z)).data.sum())

        root = ad.sum_all(fisher_trace_node(decoder, ad.Tensor(z)))
        grads = ad.backward(root, decoder.params.tensors())
        for name, tensor in decoder.params.items():
            fd = finite_diff_grad(trace_value, tensor.data, step=1e-4)
            assert max_rel_err(grads[tensor].data, fd) <= 1e-4


# (repr_dim k, classes C, hidden): C < k, C > k, k = 1, and the 8-64-3
# decoder of the CLI defaults.
STACKED_SHAPES = [(4, 3, (8,)), (2, 5, (6,)), (1, 3, (6,)), (3, 4, (5, 7)), (8, 3, (64,))]


class TestStackedAgainstPerClass:
    """The stacked pass against one backward per class, at rel 1e-12."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k,classes,hidden", STACKED_SHAPES)
    def test_trace_values(self, seed, k, classes, hidden):
        decoder = random_decoder(100 + seed, repr_dim=k, classes=classes, hidden=hidden)
        z = CounterRng(200 + seed).normals(5 * k).reshape(5, k)
        stacked = fisher_trace_node(decoder, ad.Tensor(z)).data
        reference, _, _ = per_class_fisher(decoder, ad.Tensor(z))
        assert max_rel_err(stacked, reference.data, floor=1e-300) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k,classes,hidden", STACKED_SHAPES)
    def test_parameter_gradients_of_summed_trace(self, seed, k, classes, hidden):
        decoder = random_decoder(300 + seed, repr_dim=k, classes=classes, hidden=hidden)
        z = CounterRng(400 + seed).normals(5 * k).reshape(5, k)
        wrt = decoder.params.tensors()
        stacked = ad.backward(ad.sum_all(fisher_trace_node(decoder, ad.Tensor(z))), wrt)
        reference_trace, _, _ = per_class_fisher(decoder, ad.Tensor(z))
        reference = ad.backward(ad.sum_all(reference_trace), wrt)
        for tensor in wrt:
            expected = reference[tensor].data
            # Relative to the largest entry: small entries carry cancellation.
            assert max_rel_err(stacked[tensor].data, expected,
                               floor=np.abs(expected).max()) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k,classes,hidden", STACKED_SHAPES)
    def test_fisher_matrix(self, seed, k, classes, hidden):
        decoder = random_decoder(500 + seed, repr_dim=k, classes=classes, hidden=hidden)
        z = CounterRng(600 + seed).normals(k)
        expected = per_class_fisher_matrix(decoder, z)
        assert max_rel_err(fisher_matrix(decoder, z), expected,
                           floor=np.abs(expected).max()) <= 1e-12


class TestFisherMatrix:
    def test_k_equals_one_matrix_is_trace(self):
        decoder = random_decoder(9, repr_dim=1, classes=3, hidden=(6,))
        z = np.array([0.4])
        matrix = fisher_matrix(decoder, z)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(fisher_trace(decoder, z), rel=1e-15)

    def test_symmetry(self):
        decoder = random_decoder(12)
        matrix = fisher_matrix(decoder, CounterRng(13).normals(4))
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-12

    def test_positive_semidefinite(self):
        decoder = random_decoder(15)
        matrix = fisher_matrix(decoder, CounterRng(16).normals(4))
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() >= -1e-10

    def test_matches_kl_hessian(self):
        """Finite-difference Hessian of KL(q(.|z) || q(.|z_hat)) at z_hat = z."""
        decoder = random_decoder(18, spread=0.5)
        z = CounterRng(19).normals(4) * 0.5
        p = decoder.decode(z)[0]

        def kl_at(z_hat):
            return kl_categorical(p, decoder.decode(z_hat)[0])

        hessian = finite_diff_hessian(kl_at, z.copy(), step=1e-4)
        matrix = fisher_matrix(decoder, z)
        assert np.max(np.abs(hessian - matrix)) <= 1e-3


class TestFirstOrderIdentity:
    def test_kl_gradient_vanishes_at_z(self):
        """grad of KL w.r.t. z_hat at z_hat = z is zero (central differences)."""
        for seed in range(10):
            decoder = random_decoder(seed + 40, spread=0.6)
            z = CounterRng(seed + 400).normals(4) * 0.7
            p = decoder.decode(z)[0]
            point = z.copy()

            def kl_value():
                return kl_categorical(p, decoder.decode(point)[0])

            gradient = finite_diff_grad(kl_value, point, step=1e-5)
            assert np.max(np.abs(gradient)) <= 1e-6


class TestExpectedKlMc:
    def test_zero_noise_gives_zero(self):
        decoder = random_decoder(35)
        z = CounterRng(36).normals(4).reshape(1, 4)
        values = _expected_kl_rows(decoder, z, 0.0, 50, CounterRng(37))
        assert values.shape == (1, 50) and not values.any()

    def test_matches_trace_prediction_at_small_noise(self):
        """Large-sample MC mean within 3 standard errors of sigma2/2 * Tr(I)."""
        decoder = random_decoder(38, spread=0.5)
        z = CounterRng(39).normals(4) * 0.5
        sigma2 = 1e-4
        values = _expected_kl_rows(decoder, z.reshape(1, 4), sigma2, 10_000,
                                   CounterRng(40))[0]
        mean, stderr = values.mean(), values.std(ddof=1) / math.sqrt(values.size)
        predicted = 0.5 * sigma2 * fisher_trace(decoder, z)
        assert abs(mean - predicted) <= max(3.0 * stderr, 1e-12)

    def test_same_seed_reproducible(self):
        decoder = random_decoder(41)
        z = CounterRng(42).normals(8).reshape(2, 4)
        first = _expected_kl_rows(decoder, z, 0.05, 200, CounterRng(43))
        second = _expected_kl_rows(decoder, z, 0.05, 200, CounterRng(43))
        assert np.array_equal(first, second)


class TestCovariancePenalty:
    def test_diagonal_reduces_to_standard_form(self):
        """0.5 Tr(I sigma2 Id) is the paper's 0.5 sigma2 Tr(I)."""
        decoder = random_decoder(60)
        z = CounterRng(61).normals(4)
        full = 0.5 * np.trace(fisher_matrix(decoder, z) @ (0.3 * np.eye(4)))
        assert full == pytest.approx(0.5 * 0.3 * fisher_trace(decoder, z), rel=1e-12)

    def test_full_covariance_against_correlated_noise_mc(self):
        """0.5 Tr(I Sigma) vs sampled KL under correlated Gaussian noise."""
        decoder = random_decoder(62, spread=0.5)
        rng = CounterRng(63)
        z = rng.normals(4) * 0.5
        raw = rng.normals(16).reshape(4, 4)
        cov = 1e-4 * (raw @ raw.T + 0.5 * np.eye(4))
        chol = np.linalg.cholesky(cov)
        p = decoder.decode(z)[0]
        draws = rng.normals(4 * 20_000).reshape(20_000, 4) @ chol.T
        kls = np.array([kl_categorical(p, decoder.decode(z + d)[0]) for d in draws[:20_000]])
        predicted = 0.5 * np.trace(fisher_matrix(decoder, z) @ cov)
        stderr = kls.std(ddof=1) / np.sqrt(len(kls))
        assert abs(kls.mean() - predicted) <= max(4.0 * stderr, 0.05 * predicted)
