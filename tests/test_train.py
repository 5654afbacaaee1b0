"""Loss assembly, Adam, and the training loop's contracts."""

import math

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc.channel import draw_fading_coefficients, equalization_gains, gaussian_noise
from fisherjscc.data import make_blobs, make_rings
from fisherjscc.models import DecoderModel, EncoderModel
from fisherjscc.rng import CounterRng, derive_seed
from fisherjscc.robustness import mean_fisher_trace
from fisherjscc.data import write_csv
from fisherjscc.train import (TRAINLOG_HEADER, TRAINLOG_SCHEMA, AdamState, EpochStats,
                              FixedPsnr, TrainConfig, TrainDivergenceError, UniformPsnr,
                              _accuracy, adam_step, regularized_loss, train)

from _oracles import (PerParameterAdam, adam_step_per_parameter, finite_diff_grad,
                      max_rel_err)


def small_models(seed: int = 0, input_dim: int = 3, repr_dim: int = 2,
                 classes: int = 3, hidden: int = 8):
    encoder = EncoderModel(input_dim, repr_dim, power=1.0, hidden=(hidden,),
                           seed=derive_seed(seed, "enc"))
    decoder = DecoderModel(repr_dim, classes, hidden=(hidden,),
                           seed=derive_seed(seed, "dec"))
    return encoder, decoder


def values(params) -> dict:
    """A copy of each parameter's array, by name."""
    return {name: tensor.data.copy() for name, tensor in params.items()}


class TestRegularizedLoss:
    def test_lambda_zero_is_noise_averaged_cross_entropy(self):
        encoder, decoder = small_models(1)
        x = CounterRng(2).normals(12).reshape(4, 3)
        y = np.array([0, 1, 2, 0])
        parts = regularized_loss(x, y, encoder, decoder, sigma2=0.1, coeff=0.0,
                                 noise_draws=3, rng=CounterRng(3))
        assert parts.fisher_penalty == 0.0
        # Independent assembly of the same quantity from raw pieces.
        z = encoder.encode(x)
        rng = CounterRng(3)
        total = 0.0
        for _ in range(3):
            noise = math.sqrt(0.1) * rng.normals(z.size).reshape(z.shape)
            logq = decoder.log_posterior_all(ad.Tensor(z + noise)).data
            total += -logq[np.arange(4), y].sum()
        assert float(parts.total.data) == pytest.approx(total / 12.0, rel=1e-12)

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_stacked_draws_match_per_draw_loop(self, family):
        """One stacked decoder pass equals L separate passes on the same stream."""
        encoder, decoder = small_models(13)
        x = CounterRng(14).normals(15).reshape(5, 3)
        y = np.array([0, 1, 2, 1, 0])
        parts = regularized_loss(x, y, encoder, decoder, sigma2=0.2, coeff=0.0,
                                 noise_draws=4, rng=CounterRng(15), family=family)
        z = encoder.encode(x)
        rng = CounterRng(15)
        total = 0.0
        for _ in range(4):
            noise = gaussian_noise(z.shape, 0.2, rng)
            if family == "rayleigh":
                noise = noise / equalization_gains(draw_fading_coefficients(5, rng))[:, None]
            logq = decoder.log_posterior_all(ad.Tensor(z + noise)).data
            total += -logq[np.arange(5), y].sum()
        assert parts.cross_entropy == pytest.approx(total / 20.0, rel=1e-12)

    def test_zero_sigma_kills_penalty(self):
        encoder, decoder = small_models(4)
        x = CounterRng(5).normals(6).reshape(2, 3)
        parts = regularized_loss(x, np.array([0, 1]), encoder, decoder, sigma2=0.0,
                                 coeff=0.5 * 5.0 * 0.0, noise_draws=1, rng=CounterRng(6))
        assert parts.fisher_penalty == 0.0

    def test_penalty_is_coeff_times_mean_trace(self):
        encoder, decoder = small_models(16)
        x = CounterRng(17).normals(15).reshape(5, 3)
        parts = regularized_loss(x, np.array([0, 1, 2, 1, 0]), encoder, decoder,
                                 sigma2=0.1, coeff=0.7, noise_draws=2, rng=CounterRng(18))
        expected = 0.7 * mean_fisher_trace(decoder, encoder.encode(x))
        assert parts.fisher_penalty == pytest.approx(expected, rel=1e-12)
        assert float(parts.total.data) == pytest.approx(parts.cross_entropy + expected, rel=1e-12)

    def test_penalized_step_is_one_backward_over_a_small_tape(self, monkeypatch,
                                                               tensors_built_by):
        """The benchmark's shapes: rings (2 -> 3 classes), k = 8, encoder 64-64,
        decoder 64, a 64-row batch, L = 4. The encoder, the noisy copies of z, the decoder,
        the trace and the loss are one node each, none runs a backward of its own, and
        `backward` builds no node: 5 tensors."""
        data = make_rings(3, 64, 0.15, seed=1)
        encoder = EncoderModel(2, 8, power=1.0, hidden=(64, 64), seed=2)
        decoder = DecoderModel(8, 3, hidden=(64,), seed=3)
        params = [*encoder.params.values(), *decoder.params.values()]
        backward, calls = ad.backward, []

        def counted(root, wrt):
            calls.append(1)
            return backward(root, wrt)

        monkeypatch.setattr(ad, "backward", counted)

        def step():
            parts = regularized_loss(data.features[:64], data.labels[:64], encoder, decoder,
                                     sigma2=0.01, coeff=0.5, noise_draws=4, rng=CounterRng(4))
            ad.backward(parts.total, params)

        assert tensors_built_by(step) <= 5
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_penalized_step_draws_its_noise_in_one_word_request(self, monkeypatch, family):
        """The benchmark's shapes, L = 4: the noise rng hands out words once per step."""
        data = make_rings(3, 64, 0.15, seed=1)
        encoder = EncoderModel(2, 8, power=1.0, hidden=(64, 64), seed=2)
        decoder = DecoderModel(8, 3, hidden=(64,), seed=3)
        words, requests = CounterRng._words, []

        def counted(rng, n):
            requests.append(n)
            return words(rng, n)

        monkeypatch.setattr(CounterRng, "_words", counted)
        regularized_loss(data.features[:64], data.labels[:64], encoder, decoder, sigma2=0.01,
                         coeff=0.5, noise_draws=4, rng=CounterRng(4), family=family)
        per_draw = 64 * 8 + (2 * 64 if family == "rayleigh" else 0)
        assert requests == [4 * per_draw]

    def test_hand_computed_two_class_linear_model(self):
        """Single sample, L=1, trivial encoder, identity-like decoder."""
        encoder = EncoderModel(1, 1, power=1.0, hidden=(), seed=0)
        encoder.params["W0"].data[:] = 0.0
        encoder.params["b0"].data[:] = 0.0          # z = tanh(0) = 0
        decoder = DecoderModel(1, 2, hidden=(), seed=0)
        decoder.params["W0"].data[:] = np.array([[1.0, -1.0]])
        decoder.params["b0"].data[:] = 0.0
        rng = CounterRng(7)
        noise = math.sqrt(0.04) * rng.normals(1)[0]
        parts = regularized_loss(np.array([[0.3]]), np.array([0]), encoder, decoder,
                                 sigma2=0.04, coeff=0.5 * 2.0 * 0.04, noise_draws=1,
                                 rng=CounterRng(7))
        # Cross entropy: -log sigmoid(2 z_hat) with z_hat = noise.
        expected_ce = math.log(1.0 + math.exp(-2.0 * noise))
        # Fisher trace at z=0: logits (z, -z), q = (1/2, 1/2),
        # grad_z log q_y = dlogit_y - q.(dlogits) = (+-1) - 0 = +-1... with
        # d/dz logits = (1,-1), mean = 0, so per-class squared norms are
        # (1-0)^2 = 1 and (-1-0)^2 = 1 -> trace = 1. Penalty = lam*sigma2/2.
        expected_penalty = 2.0 * 0.04 / 2.0 * 1.0
        assert parts.cross_entropy == pytest.approx(expected_ce, rel=1e-12)
        assert parts.fisher_penalty == pytest.approx(expected_penalty, rel=1e-12)
        assert float(parts.total.data) == pytest.approx(expected_ce + expected_penalty, rel=1e-12)

    def test_every_parameter_gradient_matches_finite_differences(self):
        """Full loss (lambda=1, L=2) on a k=2, C=3, 8-hidden-unit pair."""
        encoder, decoder = small_models(9)
        x = CounterRng(10).normals(12).reshape(4, 3)
        y = np.array([0, 1, 2, 1])

        def loss_value():
            return regularized_loss(x, y, encoder, decoder, sigma2=0.05,
                                    coeff=0.5 * 1.0 * 0.05, noise_draws=2,
                                    rng=CounterRng(11)).total.data.item()

        parts = regularized_loss(x, y, encoder, decoder, sigma2=0.05,
                                 coeff=0.5 * 1.0 * 0.05, noise_draws=2, rng=CounterRng(11))
        wrt = [*encoder.params.values(), *decoder.params.values()]
        grad_map = ad.backward(parts.total, wrt)
        for model in (encoder, decoder):
            for name, tensor in model.params.items():
                fd = finite_diff_grad(loss_value, tensor.data)
                assert max_rel_err(grad_map[tensor], fd) <= 1e-4

    @pytest.mark.parametrize("labels", [[-1, 0], [0, 3], [0]], ids=["negative", "past-C", "short"])
    def test_labels_outside_the_classes_rejected(self, labels):
        encoder, decoder = small_models(12)
        with pytest.raises(ValueError, match="one label"):
            regularized_loss(np.ones((2, 3)), np.array(labels), encoder, decoder,
                             sigma2=0.1, coeff=0.0, noise_draws=1, rng=CounterRng(0))

    def test_negative_sigma2_rejected(self):
        encoder, decoder = small_models(12)
        with pytest.raises(ValueError):
            regularized_loss(np.ones((1, 3)), np.array([0]), encoder, decoder,
                             sigma2=-0.1, coeff=0.0, noise_draws=1, rng=CounterRng(0))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        theta = np.array([1.0, -2.0])
        state = AdamState.init(theta)
        adam_step(theta, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(theta, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        """Bias correction makes the first update ~ lr * sign(gradient)."""
        theta = np.array([0.0])
        state = AdamState.init(theta)
        adam_step(theta, np.array([0.37]), state, lr=0.01)
        assert theta[0] == pytest.approx(-0.01, rel=1e-6)

    def test_converges_on_quadratic(self):
        """100 steps on f(w) = w^2 from w = 1 with lr 0.1 reaches |w| < 0.1."""
        theta = np.array([1.0])
        state = AdamState.init(theta)
        for _ in range(100):
            adam_step(theta, 2.0 * theta, state, lr=0.1)
        assert abs(theta[0]) < 0.1

    def test_shape_mismatch_rejected(self):
        theta = np.zeros(2)
        with pytest.raises(ValueError):
            adam_step(theta, np.zeros(3), AdamState.init(theta), lr=0.1)

    def test_whole_vector_update_equals_the_per_parameter_reference(self):
        """The benchmark's shapes (encoder 2-64-64-8, decoder 8-64-3), three steps: the
        vector and every parameter array stay the reference's bits."""
        encoder = EncoderModel(2, 8, power=1.0, hidden=(64, 64), seed=2)
        decoder = DecoderModel(8, 3, hidden=(64,), seed=3)
        params = {**{f"enc.{n}": t for n, t in encoder.params.items()},
                  **{f"dec.{n}": t for n, t in decoder.params.items()}}
        theta = np.concatenate([t.data for t in params.values()], axis=None)
        reference = PerParameterAdam(params)
        state = AdamState.init(theta)
        rng = CounterRng(61)
        for _ in range(3):
            grads = {name: rng.normals(t.data.size).reshape(t.data.shape) * 0.1
                     for name, t in params.items()}
            adam_step(theta, np.concatenate(list(grads.values()), axis=None), state, lr=1e-3)
            adam_step_per_parameter(params, grads, reference, lr=1e-3)
        assert state.t == reference.t == 3
        assert np.array_equal(theta, np.concatenate([t.data for t in params.values()],
                                                    axis=None))
        assert np.array_equal(state.m, np.concatenate(list(reference.m.values()), axis=None))
        assert np.array_equal(state.v, np.concatenate(list(reference.v.values()), axis=None))


class TestTrainLoop:
    def test_zero_epochs_leaves_models_unchanged(self):
        encoder, decoder = small_models(20)
        before_enc = values(encoder.params)
        before_dec = values(decoder.params)
        ds = make_blobs(3, 10, dim=3, spread=0.3, seed=21)
        assert train(TrainConfig(epochs=0, seed=0), ds, encoder, decoder) == []
        for name, value in before_enc.items():
            np.testing.assert_array_equal(encoder.params[name].data, value)
        for name, value in before_dec.items():
            np.testing.assert_array_equal(decoder.params[name].data, value)

    def test_accuracy_builds_no_tensor(self, tensors_built_by):
        encoder, decoder = small_models(22)
        ds = make_blobs(3, 10, dim=3, spread=0.3, seed=23)
        assert tensors_built_by(_accuracy, encoder, decoder, ds.features, ds.labels) == 0

    def test_same_config_and_seed_bitwise_identical(self):
        ds = make_blobs(3, 20, dim=3, spread=0.3, seed=22)
        results = []
        for _ in range(2):
            encoder, decoder = small_models(23)
            train(TrainConfig(lam=0.3, epochs=3, batch_size=16, seed=24,
                              psnr=FixedPsnr(15.0)), ds, encoder, decoder)
            results.append((values(encoder.params), values(decoder.params)))
        for name in results[0][0]:
            np.testing.assert_array_equal(results[0][0][name], results[1][0][name])
        for name in results[0][1]:
            np.testing.assert_array_equal(results[0][1][name], results[1][1][name])

    def test_on_epoch_sees_each_epoch_after_its_updates(self):
        ds = make_blobs(3, 10, dim=3, spread=0.3, seed=34)
        encoder, decoder = small_models(35)
        seen = []

        def on_epoch(stats):
            seen.append((stats, values(decoder.params)))

        log = train(TrainConfig(epochs=2, batch_size=16, seed=36), ds,
                    encoder, decoder, on_epoch=on_epoch)
        assert [stats for stats, _ in seen] == log
        for name, value in seen[-1][1].items():
            np.testing.assert_array_equal(decoder.params[name].data, value)
        assert any(not np.array_equal(seen[0][1][n], seen[1][1][n]) for n in seen[0][1])

    def test_separable_blobs_reach_95_percent(self):
        ds = make_blobs(4, 50, dim=4, spread=0.3, seed=25)
        encoder, decoder = small_models(26, input_dim=4, repr_dim=4, classes=4, hidden=16)
        log = train(TrainConfig(lam=0.0, epochs=50, batch_size=32, seed=27,
                                psnr=FixedPsnr(20.0)), ds, encoder, decoder)
        assert log[-1].accuracy >= 0.95

    def test_uniform_psnr_regime_runs_and_differs_from_fixed(self):
        ds = make_blobs(3, 20, dim=3, spread=0.3, seed=28)
        final = {}
        for tag, psnr in (("fixed", FixedPsnr(15.0)),
                          ("uniform", UniformPsnr(10.0, 25.0))):
            encoder, decoder = small_models(29)
            train(TrainConfig(lam=0.2, epochs=2, batch_size=16, seed=30, psnr=psnr),
                  ds, encoder, decoder)
            final[tag] = values(encoder.params)
        assert any(not np.array_equal(final["fixed"][n], final["uniform"][n])
                   for n in final["fixed"])

    def test_divergence_aborts_with_snapshot(self):
        ds = make_blobs(2, 10, dim=3, spread=0.3, seed=31)
        encoder, decoder = small_models(32, classes=2)
        decoder.params["b0"].data[0] = np.nan  # poisoned state -> NaN loss
        with pytest.raises(TrainDivergenceError) as info:
            train(TrainConfig(lam=0.0, epochs=1, seed=33), ds, encoder, decoder)
        assert info.value.snapshot["epoch"] == 0 and info.value.snapshot["batch"] == 0

    def test_nan_in_one_leaf_gradient_aborts_with_snapshot(self, nan_in_second_step_gradient):
        """A NaN planted in one parameter's gradient in the second step (batch 1) ends
        the run as TrainDivergenceError, before Adam carries it into the parameters."""
        ds = make_blobs(3, 20, dim=3, spread=0.3, seed=31)
        encoder, decoder = small_models(32)
        with pytest.raises(TrainDivergenceError) as info:
            train(TrainConfig(lam=0.3, epochs=1, batch_size=16, seed=33), ds, encoder, decoder)
        assert (info.value.snapshot["epoch"], info.value.snapshot["batch"]) == (0, 1)
        for model in (encoder, decoder):
            assert all(np.isfinite(t.data).all() for t in model.params.values())

    def test_shuffle_covers_dataset_exactly(self):
        """Each epoch's batches form a seeded permutation of the dataset."""
        order = CounterRng(derive_seed(77, "shuffle", 0)).permutation(50)
        assert sorted(order.tolist()) == list(range(50))
        again = CounterRng(derive_seed(77, "shuffle", 0)).permutation(50)
        np.testing.assert_array_equal(order, again)

    def test_monotone_penalty_tradeoff_across_lambda(self):
        """Final mean penalty is non-increasing in lambda, majority of 3 seeds."""
        wins = 0
        for seed in (41, 42, 43):
            ds = make_rings(3, 60, noise=0.15, seed=derive_seed(seed, "data"))
            finals = []
            for lam in (0.0, 0.3, 1.0):
                encoder, decoder = small_models(seed, input_dim=2, repr_dim=4,
                                                classes=3, hidden=24)
                train(TrainConfig(lam=lam, epochs=20, batch_size=32,
                                  seed=seed, psnr=FixedPsnr(10.0)),
                      ds, encoder, decoder)
                # Mean penalty at shared weighting so values are comparable.
                z = encoder.encode(ds.features)
                finals.append(mean_fisher_trace(decoder, z))
            if finals[0] >= finals[1] >= finals[2]:
                wins += 1
        assert wins >= 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(noise_draws=0)
        with pytest.raises(ValueError):
            UniformPsnr(20.0, 10.0)
        with pytest.raises(ValueError):
            TrainConfig(psnr=UniformPsnr(10.0, 20.0), omit_sigma2=True)
        with pytest.raises(ValueError, match="family"):
            TrainConfig(family="rician")

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_rayleigh_penalty_rejected(self):
        """The h-conditional fading penalty is not implemented, so lambda > 0 is refused."""
        with pytest.raises(ValueError, match="Rayleigh"):
            TrainConfig(lam=0.5, family="rayleigh")
        assert TrainConfig(lam=0.0, family="rayleigh").family == "rayleigh"


class TestTrainLog:
    def test_csv_round_trip_values(self, tmp_path):
        """The trainlog columns are EpochStats fields; wall time is not among them."""
        stats = [EpochStats(0, 1.25, 0.5, 0.75, 0.001), EpochStats(1, 0.5, 0.25, 1.0, 0.002)]
        path = tmp_path / "log.csv"
        write_csv(path, TRAINLOG_SCHEMA, TRAINLOG_HEADER,
                  [[getattr(s, column) for column in TRAINLOG_HEADER] for s in stats])
        assert path.read_text().splitlines() == [
            "# schema=fisherjscc.trainlog.v1",
            "epoch,cross_entropy,fisher_penalty,accuracy",
            "0,1.25,0.5,0.75",
            "1,0.5,0.25,1.0"]
