"""Core math: row-wise KL, Fisher information and trace, sampled KL against the penalty."""

import math
import threading

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc import robustness
from fisherjscc.experiments import taylor_validation
from fisherjscc.models import DecoderModel, EncoderModel, _class_sum
from fisherjscc.robustness import _expected_kl_rows, _kl_rows, fisher_trace_node
from fisherjscc.rng import CounterRng

from _oracles import (backward, expected_kl_rows_serial, finite_diff_grad, finite_diff_hessian,
                      fisher_matrix, fisher_trace, kl_reference, max_rel_err, mul,
                      per_class_fisher, per_class_fisher_matrix, stacked_fisher_trace, sum_all,
                      weighted_sum)


def kl(p, q) -> float:
    """KL(p || q) of two distributions through the program's row-wise `_kl_rows`."""
    return float(_kl_rows(np.array([p], dtype=np.float64), np.array([q], dtype=np.float64))[0])


def kl_table(decoder, z, sigma2, samples, rng) -> np.ndarray:
    """The [n, samples] table of `_expected_kl_rows`'s draws: its yielded [take, n]
    blocks, run to the end and stacked in order."""
    return np.concatenate(list(_expected_kl_rows(decoder, z, sigma2, samples, rng))).T


def random_decoder(seed: int, repr_dim: int = 4, classes: int = 3,
                   hidden=(8,), spread: float = 1.0) -> DecoderModel:
    decoder = DecoderModel(repr_dim, classes, hidden=hidden, seed=seed)
    rng = CounterRng(seed * 7 + 1)
    for name, tensor in decoder.params.items():
        tensor.data += spread * rng.normals(tensor.data.size).reshape(tensor.data.shape)
    return decoder


class TestKlRows:
    def test_identical_distributions_zero(self):
        assert kl([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_matches_fsum_reference(self):
        rng = CounterRng(61)
        for _ in range(25):
            p = rng.uniforms(5) + 1e-3
            p /= p.sum()
            q = rng.uniforms(5) + 1e-3
            q /= q.sum()
            assert kl(p, q) == pytest.approx(kl_reference(p, q), rel=1e-13)

    def test_zero_mass_entries_clamped(self):
        value = kl([0.5, 0.5, 0.0], [0.5, 0.0, 0.5])
        assert value == pytest.approx(0.5 * (math.log(0.5) - math.log(1e-12)), rel=1e-12)

    def test_nonnegative_on_posteriors(self):
        decoder = random_decoder(3)
        rng = CounterRng(83)
        for _ in range(50):
            p = decoder.decode(rng.normals(4))[0]
            q = decoder.decode(rng.normals(4))[0]
            assert kl(p, q) >= 0.0

    @pytest.mark.parametrize("classes", [3, 9, 65])
    def test_zero_p_entries_need_no_mask(self, classes):
        """With exact zeros in p, the unmasked terms give the masked form's values:
        log(max(p, 1e-12)) is finite, so a zero p entry already gives a zero term."""
        rng = CounterRng(84 + classes)
        p = rng.uniforms(40 * classes).reshape(40, classes)
        p[p < 0.4] = 0.0
        p[:, 0] += 1e-3              # no row is all zeros
        p /= p.sum(axis=1, keepdims=True)
        q = rng.uniforms(40 * classes).reshape(40, classes)
        q[q < 0.2] = 0.0
        q[:, 1] += 1e-3
        q /= q.sum(axis=1, keepdims=True)
        q[:5] = p[:5]                # rows whose KL is exactly zero
        clamped = np.maximum(q, robustness.KL_LOG_CLAMP)
        masked = _class_sum(np.where(p > 0.0, p * (np.log(np.maximum(p, robustness.KL_LOG_CLAMP))
                                                   - np.log(clamped)), 0.0))
        unmasked = _kl_rows(p, q)
        assert (p == 0.0).any() and not unmasked[:5].any()
        assert np.array_equal(unmasked, masked)
        assert np.array_equal(np.signbit(unmasked), np.signbit(masked))


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

        root = weighted_sum(fisher_trace_node(decoder, ad.Tensor(z)))
        grads = ad.backward(root, list(decoder.params.values()))
        for name, tensor in decoder.params.items():
            fd = finite_diff_grad(trace_value, tensor.data, step=1e-4)
            assert max_rel_err(grads[tensor], fd) <= 1e-4


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
        wrt = list(decoder.params.values())
        stacked = ad.backward(weighted_sum(fisher_trace_node(decoder, ad.Tensor(z))), wrt)
        reference_trace, _, _ = per_class_fisher(decoder, ad.Tensor(z))
        reference = backward(sum_all(reference_trace), wrt)
        for tensor in wrt:
            expected = reference[tensor].data
            # Relative to the largest entry: small entries carry cancellation.
            assert max_rel_err(stacked[tensor], expected,
                               floor=np.abs(expected).max()) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k,classes,hidden", STACKED_SHAPES)
    def test_fisher_matrix(self, seed, k, classes, hidden):
        decoder = random_decoder(500 + seed, repr_dim=k, classes=classes, hidden=hidden)
        z = CounterRng(600 + seed).normals(k)
        expected = per_class_fisher_matrix(decoder, z)
        assert max_rel_err(fisher_matrix(decoder, z), expected,
                           floor=np.abs(expected).max()) <= 1e-12


# STACKED_SHAPES plus a linear decoder and a three-hidden-layer one, both at C = 10 > k = 2.
NODE_SHAPES = STACKED_SHAPES + [(2, 10, ()), (2, 10, (32, 16, 8))]


def difference_form(decoder: DecoderModel, z: np.ndarray) -> np.ndarray:
    """sum_c q_c ||M_c||^2 - ||Mq||^2 per row of z, for a one-hidden-layer decoder.

    M = W0 diag(a0 > 0) W1 is d logits / dz. The value equals the trace but is
    a difference of two nearly equal terms when q is nearly one-hot.
    """
    w0, b0, w1 = (decoder.params[name].data for name in ("W0", "b0", "W1"))
    masks = (z @ w0 + b0) > 0.0
    q = decoder.decode(z)
    out = []
    for mask, q_row in zip(masks, q):
        jac = (w0 * mask) @ w1
        mean = jac @ q_row
        out.append(q_row @ (jac * jac).sum(axis=0) - mean @ mean)
    return np.array(out)


class TestClosedFormNode:
    """fisher_trace_node against the stacked tape reference, at 1e-12 of each tensor's
    largest entry, under a per-row upstream weight like the fading penalty's."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k,classes,hidden", NODE_SHAPES)
    def test_value_and_every_gradient(self, seed, k, classes, hidden):
        decoder = random_decoder(700 + seed, repr_dim=k, classes=classes, hidden=hidden)
        z_node = ad.Tensor(CounterRng(800 + seed).normals(5 * k).reshape(5, k))
        weight = 0.1 + CounterRng(900 + seed).uniforms(5)
        wrt = [z_node, *decoder.params.values()]
        node = fisher_trace_node(decoder, z_node)
        reference = stacked_fisher_trace(decoder, z_node)
        assert max_rel_err(node.data, reference.data,
                           floor=np.abs(reference.data).max()) <= 1e-12
        got = ad.backward(weighted_sum(node, weight), wrt)
        expected = backward(sum_all(mul(reference, weight)), wrt)
        for tensor in wrt:
            scale = max(np.abs(expected[tensor].data).max(), 1e-300)
            assert max_rel_err(got[tensor], expected[tensor].data, floor=scale) <= 1e-12

    def test_saturated_row_keeps_its_digits(self):
        """Row 3 has a nearly one-hot posterior and a trace of about 1.8e-12. The
        difference form loses most of its digits there; the node keeps them."""
        decoder = random_decoder(100, repr_dim=8, classes=3, hidden=(64,))
        z = CounterRng(200).normals(40).reshape(5, 8)
        reference = stacked_fisher_trace(decoder, ad.Tensor(z)).data
        assert reference[3] < 1e-11
        node = fisher_trace_node(decoder, ad.Tensor(z)).data
        assert max_rel_err(node, reference, floor=1e-300) <= 1e-12
        assert max_rel_err(difference_form(decoder, z), reference, floor=1e-300) > 1e-6

    def test_one_gradient_computation_per_upstream_gradient(self, monkeypatch):
        decoder = random_decoder(71, hidden=(6, 5))
        z_node = ad.Tensor(CounterRng(72).normals(12).reshape(3, 4))
        calls = []
        gradients = robustness._ClosedForm.gradients

        def counted(self, weight):
            calls.append(1)
            return gradients(self, weight)

        monkeypatch.setattr(robustness._ClosedForm, "gradients", counted)
        root = weighted_sum(fisher_trace_node(decoder, z_node))
        ad.backward(root, [z_node, *decoder.params.values()])
        assert len(calls) == 1
        ad.backward(root, [z_node])
        assert len(calls) == 2

    def test_gradients_are_leaves(self):
        """Plain arrays, not graph nodes: the node is differentiable once."""
        decoder = random_decoder(73)
        z_node = ad.Tensor(CounterRng(74).normals(8).reshape(2, 4))
        grads = ad.backward(weighted_sum(fisher_trace_node(decoder, z_node)),
                            [z_node, *decoder.params.values()])
        assert all(type(g) is np.ndarray for g in grads.values())

    def test_vector_input_is_one_row(self):
        decoder = random_decoder(75)
        z = CounterRng(76).normals(4)
        z_node = ad.Tensor(z)
        node = fisher_trace_node(decoder, z_node)
        assert node.data.shape == (1,)
        assert node.data[0] == pytest.approx(fisher_trace(decoder, z), rel=1e-12)
        assert ad.backward(weighted_sum(node), [z_node])[z_node].shape == (4,)

    def test_mean_trace_is_the_reference_mean_over_chunks(self, monkeypatch, tensors_built_by):
        monkeypatch.setattr(robustness, "TRACE_CHUNK", 2)
        decoder = random_decoder(77, hidden=(6, 5))
        z = CounterRng(78).normals(20).reshape(5, 4)
        expected = stacked_fisher_trace(decoder, ad.Tensor(z)).data.mean()
        assert robustness.mean_fisher_trace(decoder, z) == pytest.approx(expected, rel=1e-12)
        assert tensors_built_by(robustness.mean_fisher_trace, decoder, z) == 0

    def test_non_finite_values_raise(self):
        """An overflowing layer, and finite logits 2e308 apart, as the tape's checks catch them."""
        decoder = random_decoder(79)
        decoder.params["W0"].data[:] = 1e308
        linear = DecoderModel(2, 2, hidden=(), seed=80)
        linear.params["W0"].data[:] = np.eye(2)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError):
                fisher_trace_node(decoder, ad.Tensor(np.full((2, 4), 10.0)))
            with pytest.raises(FloatingPointError):
                fisher_trace_node(linear, ad.Tensor(np.array([[1e308, -1e308]])))


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
            return kl(p, decoder.decode(z_hat)[0])

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
                return kl(p, decoder.decode(point)[0])

            gradient = finite_diff_grad(kl_value, point, step=1e-5)
            assert np.max(np.abs(gradient)) <= 1e-6


class TestExpectedKlMc:
    def test_zero_noise_gives_zero(self):
        decoder = random_decoder(35)
        z = CounterRng(36).normals(4).reshape(1, 4)
        values = kl_table(decoder, z, 0.0, 50, CounterRng(37))
        assert values.shape == (1, 50) and not values.any()

    def test_matches_trace_prediction_at_small_noise(self):
        """Large-sample MC mean within 3 standard errors of sigma2/2 * Tr(I)."""
        decoder = random_decoder(38, spread=0.5)
        z = CounterRng(39).normals(4) * 0.5
        sigma2 = 1e-4
        values = kl_table(decoder, z.reshape(1, 4), sigma2, 10_000, CounterRng(40))[0]
        mean, stderr = values.mean(), values.std(ddof=1) / math.sqrt(values.size)
        predicted = 0.5 * sigma2 * fisher_trace(decoder, z)
        assert abs(mean - predicted) <= max(3.0 * stderr, 1e-12)

    def test_builds_no_tensor(self, tensors_built_by):
        decoder = random_decoder(44)
        z = CounterRng(45).normals(8).reshape(2, 4)
        assert tensors_built_by(kl_table, decoder, z, 0.05, 50, CounterRng(46)) == 0

    def test_same_seed_reproducible(self):
        decoder = random_decoder(41)
        z = CounterRng(42).normals(8).reshape(2, 4)
        first = kl_table(decoder, z, 0.05, 200, CounterRng(43))
        second = kl_table(decoder, z, 0.05, 200, CounterRng(43))
        assert np.array_equal(first, second)


class TestSlicedKl:
    """Decoding each noise block in slices gives the whole-block decode's values."""

    @pytest.mark.parametrize("n, samples, chunk_rows", [
        (2, 200, None), (256, 2_000, None), (300, 700, None), (3, 25, 1),
    ], ids=["one-block", "uneven-last-block", "n-does-not-divide-slice", "one-draw-per-block"])
    def test_equals_whole_block_decode(self, monkeypatch, n, samples, chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(robustness, "KL_CHUNK_ROWS", chunk_rows)
        decoder = random_decoder(47)
        z = CounterRng(48).normals(n * 4).reshape(n, 4)
        sliced = kl_table(decoder, z, 0.05, samples, CounterRng(49))
        whole = expected_kl_rows_serial(decoder, z, 0.05, samples, CounterRng(49))
        assert sliced.shape == (n, samples)
        assert np.array_equal(sliced, whole)

    @pytest.mark.parametrize("n, samples, expected", [
        (2, 200, [400]),
        (256, 512, [16384] * 8),
        (300, 700, [16384, 16384, 32632] * 3 + [13800]),
        (100, 400, [16384, 23616]),
    ], ids=["one-block", "whole-slices", "remainder-joins-last", "two-slices"])
    def test_no_slice_is_shorter_than_the_floor(self, monkeypatch, n, samples, expected):
        """A slice under KL_SLICE_ROWS rows appears only when its whole block is that short."""
        decoder = random_decoder(56)
        z = CounterRng(57).normals(n * 4).reshape(n, 4)
        decode, sizes = decoder.decode, []

        def recording_decode(z_rows):
            sizes.append(len(z_rows))
            return decode(z_rows)

        monkeypatch.setattr(decoder, "decode", recording_decode)
        kl_table(decoder, z, 0.05, samples, CounterRng(58))
        assert sizes[1:] == expected       # sizes[0] is the clean decode of z

    def test_one_block_is_live_at_each_draw(self, live_at_each_draw):
        """256 points x 600 draws make blocks of 256, 256 and 88 draws, the first two
        decoded in four slices; nothing of a block is alive when the next is drawn."""
        decoder = random_decoder(59)
        z = CounterRng(60).normals(256 * 4).reshape(256, 4)
        live = live_at_each_draw(robustness)
        kl_table(decoder, z, 0.05, 600, CounterRng(61))
        assert live == [0, 0]

    def test_overflow_in_a_cell_reaches_the_caller(self, monkeypatch):
        def overflowing_noise(shape, sigma2, family, rng):
            return np.full(shape, 1e300) * 1e300

        monkeypatch.setattr(robustness, "channel_noise", overflowing_noise)
        encoder, decoder = EncoderModel(2, 4, power=1.0, seed=50), random_decoder(50)
        features = CounterRng(51).normals(16).reshape(8, 2)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            taylor_validation(encoder, decoder, features, [0.05, 0.1], 50, seed=52, threads=2)

    def test_failed_decode_in_a_cell_leaves_no_thread_behind(self, monkeypatch):
        encoder, decoder = EncoderModel(2, 4, power=1.0, seed=53), random_decoder(53)
        features = CounterRng(54).normals(16).reshape(8, 2)
        decode, calls = decoder.decode, []

        def failing_decode(z_rows):
            calls.append(len(z_rows))
            if len(calls) > 2:
                raise RuntimeError("decode failed")
            return decode(z_rows)

        monkeypatch.setattr(decoder, "decode", failing_decode)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="decode failed"):
            taylor_validation(encoder, decoder, features, [0.05, 0.1], 200, seed=55, threads=2)
        assert threading.active_count() == before


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
        kls = np.array([kl(p, decoder.decode(z + d)[0]) for d in draws[:20_000]])
        predicted = 0.5 * np.trace(fisher_matrix(decoder, z) @ cov)
        stderr = kls.std(ddof=1) / np.sqrt(len(kls))
        assert abs(kls.mean() - predicted) <= max(4.0 * stderr, 0.05 * predicted)
