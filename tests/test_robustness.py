"""Core math: row-wise KL, Fisher information and trace, sampled KL against the penalty."""

import math
import threading

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc import experiments, robustness
from fisherjscc.experiments import taylor_validation
from fisherjscc.models import FOLD_CLASSES, DecoderModel, EncoderModel, _class_sum
from fisherjscc.robustness import _kl_rows, fisher_trace_node
from fisherjscc.rng import CounterRng

from _oracles import (backward, expected_kl_rows_serial, finite_diff_grad, finite_diff_hessian,
                      fisher_matrix, fisher_trace, kl_reference, max_rel_err, mul,
                      per_class_fisher, per_class_fisher_matrix, stacked_fisher_trace, sum_all,
                      weighted_sum)


def kl(log_p, log_q) -> float:
    """KL(p || q) of two distributions, from their logs, through the program's row-wise
    `_kl_rows`."""
    return float(_kl_rows(np.array([log_p], dtype=np.float64),
                          np.array([log_q], dtype=np.float64))[0])


def kl_table(decoder, z, sigma2, samples, seed) -> np.ndarray:
    """The [n, samples] KL table of `taylor_validation`'s draws at one sigma2: the
    `_kl_rows` output of each block of a threads=1 `_kl_moments` run, copied before the
    fold consumes it, stacked in block order."""
    blocks, kl_rows = [], experiments._kl_rows

    def recorded(log_p, log_q):
        kl = kl_rows(log_p, log_q)
        blocks.append(kl.copy())
        return kl

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_kl_rows", recorded)
        experiments._kl_moments(decoder, z, [sigma2], samples, seed, threads=1)
    return np.concatenate(blocks).T


def random_decoder(seed: int, repr_dim: int = 4, classes: int = 3,
                   hidden=(8,), spread: float = 1.0) -> DecoderModel:
    decoder = DecoderModel(repr_dim, classes, hidden=hidden, seed=seed)
    rng = CounterRng(seed * 7 + 1)
    for name, tensor in decoder.params.items():
        tensor.data += spread * rng.normals(tensor.data.size).reshape(tensor.data.shape)
    return decoder


class TestKlRows:
    def test_identical_distributions_zero(self):
        assert kl(np.log([0.3, 0.7]), np.log([0.3, 0.7])) == 0.0

    def test_point_mass_vs_uniform(self):
        """exp(-800) underflows to 0, so the second class gives a zero term."""
        assert kl([0.0, -800.0], np.log([0.5, 0.5])) == pytest.approx(math.log(2.0),
                                                                      rel=1e-15)

    def test_matches_fsum_reference(self):
        rng = CounterRng(61)
        for _ in range(25):
            p = rng.uniforms(5) + 1e-3
            q = rng.uniforms(5) + 1e-3
            log_p, log_q = np.log(p / p.sum()), np.log(q / q.sum())
            assert kl(log_p, log_q) == pytest.approx(kl_reference(log_p, log_q), rel=1e-13)

    def test_a_far_tail_of_q_gives_its_exact_term(self):
        """log q = -50, far below log 1e-12 = -27.6: the term is 0.5 * (log 0.5 + 50),
        not capped."""
        log_q = [math.log1p(-math.exp(-50.0)), -50.0]
        value = kl(np.log([0.5, 0.5]), log_q)
        expected = 0.5 * (math.log(0.5) - log_q[0]) + 0.5 * (math.log(0.5) + 50.0)
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(kl_reference(np.log([0.5, 0.5]), log_q), rel=1e-15)

    def test_nonnegative_on_posteriors(self):
        decoder = random_decoder(3)
        rng = CounterRng(83)
        for _ in range(50):
            log_p = decoder._log_posterior(rng.normals(4))[0]
            log_q = decoder._log_posterior(rng.normals(4))[0]
            assert kl(log_p, log_q) >= 0.0

    @pytest.mark.parametrize("classes", [3, 9, 65])
    def test_zero_p_entries_need_no_mask(self, classes):
        """With entries of p that underflow to 0 (log p down to -800), the unmasked terms
        give the masked form's values: every log is finite, so such an entry already
        gives a zero term."""
        rng = CounterRng(84 + classes)
        log_p = rng.uniforms(40 * classes).reshape(40, classes) * -800.0
        log_p[:, 0] = -0.5           # no row is all underflow
        log_q = rng.uniforms(40 * classes).reshape(40, classes) * -800.0
        log_q[:5] = log_p[:5]        # rows whose KL is exactly zero
        p = np.exp(log_p)
        masked = _class_sum(np.where(p > 0.0, p * (log_p - log_q), 0.0))
        unmasked = _kl_rows(log_p, log_q)
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

    def test_mean_trace_of_a_vector_is_a_batch_of_one(self):
        """A k-vector is one representation, as `decode` takes it: its mean trace is its
        trace, not that trace over k."""
        decoder = DecoderModel(8, 3, hidden=(64,), seed=4)
        z = CounterRng(1).normals(8)
        assert robustness.mean_fisher_trace(decoder, z) == robustness.mean_fisher_trace(
            decoder, z[None]) == pytest.approx(fisher_trace(decoder, z), rel=1e-12)

    def test_no_points_are_refused_before_a_draw(self, monkeypatch):
        """An empty batch has no mean trace, and a Taylor check of no points no rows."""
        def draw(*args, **kwargs):
            raise AssertionError("drew noise")

        monkeypatch.setattr(experiments, "channel_noise", draw)
        decoder = DecoderModel(8, 3, hidden=(64,), seed=4)
        encoder = EncoderModel(2, 8, power=1.0, hidden=(16,), seed=3)
        refused = "needs at least one representation"
        with pytest.raises(ValueError, match=refused):
            robustness.mean_fisher_trace(decoder, np.zeros((0, 8)))
        with pytest.raises(ValueError, match=refused):
            taylor_validation(encoder, decoder, np.zeros((0, 2)), [0.01], 20, seed=5)

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
        log_p = decoder._log_posterior(z)[0]

        def kl_at(z_hat):
            return kl(log_p, decoder._log_posterior(z_hat)[0])

        hessian = finite_diff_hessian(kl_at, z.copy(), step=1e-4)
        matrix = fisher_matrix(decoder, z)
        assert np.max(np.abs(hessian - matrix)) <= 1e-3


class TestFirstOrderIdentity:
    def test_kl_gradient_vanishes_at_z(self):
        """grad of KL w.r.t. z_hat at z_hat = z is zero (central differences)."""
        for seed in range(10):
            decoder = random_decoder(seed + 40, spread=0.6)
            z = CounterRng(seed + 400).normals(4) * 0.7
            log_p = decoder._log_posterior(z)[0]
            point = z.copy()

            def kl_value():
                return kl(log_p, decoder._log_posterior(point)[0])

            gradient = finite_diff_grad(kl_value, point, step=1e-5)
            assert np.max(np.abs(gradient)) <= 1e-6


class TestExpectedKlMc:
    def test_zero_noise_gives_zero(self):
        decoder = random_decoder(35)
        z = CounterRng(36).normals(4).reshape(1, 4)
        values = kl_table(decoder, z, 0.0, 50, 37)
        assert values.shape == (1, 50) and not values.any()

    def test_matches_trace_prediction_at_small_noise(self):
        """Large-sample MC mean within 3 standard errors of sigma2/2 * Tr(I)."""
        decoder = random_decoder(38, spread=0.5)
        z = CounterRng(39).normals(4) * 0.5
        sigma2 = 1e-4
        values = kl_table(decoder, z.reshape(1, 4), sigma2, 10_000, 40)[0]
        mean, stderr = values.mean(), values.std(ddof=1) / math.sqrt(values.size)
        predicted = 0.5 * sigma2 * fisher_trace(decoder, z)
        assert abs(mean - predicted) <= max(3.0 * stderr, 1e-12)

    def test_builds_no_tensor(self, tensors_built_by):
        decoder = random_decoder(44)
        z = CounterRng(45).normals(8).reshape(2, 4)
        assert tensors_built_by(kl_table, decoder, z, 0.05, 50, 46) == 0

    def test_same_seed_reproducible(self):
        decoder = random_decoder(41)
        z = CounterRng(42).normals(8).reshape(2, 4)
        first = kl_table(decoder, z, 0.05, 200, 43)
        second = kl_table(decoder, z, 0.05, 200, 43)
        assert np.array_equal(first, second)


class TestSlicedKl:
    """The Monte-Carlo KL in blocks of shared draws, each decoded in one call."""

    @pytest.mark.parametrize("n, samples, block_rows", [
        (2, 200, None), (256, 2_000, None), (300, 700, None), (3, 25, 1),
    ], ids=["one-block", "uneven-last-block", "n-does-not-divide-slice", "one-draw-per-block"])
    def test_equals_whole_block_decode(self, monkeypatch, n, samples, block_rows):
        """The Taylor blocks' KL in `taylor_validation`'s layout gives the serial
        oracle's bits."""
        if block_rows is not None:
            monkeypatch.setattr(experiments, "TAYLOR_BLOCK_ROWS", block_rows)
        decoder = random_decoder(47)
        z = CounterRng(48).normals(n * 4).reshape(n, 4)
        blocks = kl_table(decoder, z, 0.05, samples, 49)
        whole = expected_kl_rows_serial(decoder, z, 0.05, samples, 49)
        assert blocks.shape == (n, samples)
        assert np.array_equal(blocks, whole)

    def test_one_block_is_live_at_each_draw(self, live_at_each_draw):
        """256 points x 600 draws make nine blocks of 64 draws and one of 24, at two
        noise levels; nothing of a block is alive when the next is drawn."""
        encoder, decoder = EncoderModel(2, 4, power=1.0, seed=59), random_decoder(59)
        features = CounterRng(60).normals(256 * 2).reshape(256, 2)
        taylor_validation(encoder, decoder, features, [0.05, 0.1], 600, seed=61, threads=1)
        assert live_at_each_draw == [0] * 9

    def test_overflow_in_a_cell_reaches_the_caller(self, monkeypatch):
        def overflowing_noise(shape, sigma2, family, rng):
            return np.full(shape, 1e300) * 1e300

        monkeypatch.setattr(experiments, "channel_noise", overflowing_noise)
        encoder, decoder = EncoderModel(2, 4, power=1.0, seed=50), random_decoder(50)
        features = CounterRng(51).normals(16).reshape(8, 2)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            taylor_validation(encoder, decoder, features, [0.05, 0.1], 50, seed=52, threads=2)

    def test_failed_decode_in_a_cell_leaves_no_thread_behind(self, monkeypatch):
        """8 points x 5,000 draws are three blocks on two workers; the third chunk's
        decode fails."""
        encoder, decoder = EncoderModel(2, 4, power=1.0, seed=53), random_decoder(53)
        features = CounterRng(54).normals(16).reshape(8, 2)
        decode, calls = decoder._log_posterior_columns, []

        def failing_decode(z_columns):
            calls.append(z_columns.shape[1])
            if len(calls) > 2:
                raise RuntimeError("decode failed")
            return decode(z_columns)

        monkeypatch.setattr(decoder, "_log_posterior_columns", failing_decode)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="decode failed"):
            taylor_validation(encoder, decoder, features, [0.05, 0.1], 5_000, seed=55, threads=2)
        assert threading.active_count() == before


class TestChunkedKl:
    """Each Taylor block decoded in column layout, in chunks of whole draws."""

    @pytest.mark.parametrize("n, samples, classes, hidden", [
        (1, 16_385, 3, (8,)), (1, 4_097, 3, (8,)), (5_000, 7, 3, (8,)), (300, 700, 9, (8,)),
        (40, 700, 65, (64,)),
    ], ids=["last-block-one-column", "no-one-column-chunk", "n-wider-than-a-chunk",
            "9-classes", "65-classes"])
    def test_equals_the_serial_oracle(self, n, samples, classes, hidden):
        """One point's last block is one draw, one column (a gemv, as the oracle's one
        row is); its block of 4,097 draws is two chunks of about 2,048, not 4,096 and a
        gemv of one; a chunk of one draw of 5,000 points is wider than 4,096 columns;
        from FOLD_CLASSES classes on, the class reductions are NumPy's."""
        assert experiments.TAYLOR_CHUNK_COLUMNS < 5_000 and FOLD_CLASSES <= 9
        decoder = random_decoder(71 + classes, classes=classes, hidden=hidden)
        z = CounterRng(71).normals(n * 4).reshape(n, 4)
        table = kl_table(decoder, z, 0.05, samples, 72)
        assert table.tobytes() == expected_kl_rows_serial(decoder, z, 0.05, samples,
                                                          72).tobytes()

    def test_table_does_not_depend_on_the_chunk_width(self, monkeypatch):
        """Chunks of one draw, the default and the whole block give one table. 40 points
        x 1,000 draws are blocks of 409, 409 and 182 draws, every chunk a multiple of 8
        columns wide. On an 8-wide representation with a 64-wide hidden layer, full
        blocks of 300 points split into default chunks of 3,000 and 3,300 columns, and
        of 129 points into 3,225 and 3,354: on NumPy's OpenBLAS one product of such a
        width does not keep a wider product's bits (README, "Memory"), a product of at
        most 1,024 columns does."""
        cases = [(random_decoder(73, hidden=(64,)), 40, 1_000),
                 (DecoderModel(8, 3, hidden=(64,), seed=73), 300, 60),
                 (DecoderModel(8, 3, hidden=(64,), seed=73), 129, 130)]
        widths = (40, experiments.TAYLOR_CHUNK_COLUMNS, experiments.TAYLOR_BLOCK_ROWS)
        for decoder, n, samples in cases:
            z = CounterRng(74).normals(n * decoder.repr_dim).reshape(n, decoder.repr_dim)
            tables = []
            for columns in widths:
                monkeypatch.setattr(experiments, "TAYLOR_CHUNK_COLUMNS", columns)
                tables.append(kl_table(decoder, z, 0.05, samples, 75).tobytes())
            assert tables[0] == tables[1] == tables[2], n


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
        log_p = decoder._log_posterior(z)[0]
        draws = rng.normals(4 * 20_000).reshape(20_000, 4) @ chol.T
        kls = np.array([kl(log_p, decoder._log_posterior(z + d)[0]) for d in draws[:20_000]])
        predicted = 0.5 * np.trace(fisher_matrix(decoder, z) @ cov)
        stderr = kls.std(ddof=1) / np.sqrt(len(kls))
        assert abs(kls.mean() - predicted) <= max(4.0 * stderr, 0.05 * predicted)
