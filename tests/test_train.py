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
from fisherjscc.train import (AdamState, EpochStats, FixedPsnr, TrainConfig,
                              TrainDivergenceError, TrainLog, UniformPsnr,
                              adam_step, regularized_loss, train)

from _oracles import finite_diff_grad, max_rel_err


def small_models(seed: int = 0, input_dim: int = 3, repr_dim: int = 2,
                 classes: int = 3, hidden: int = 8):
    encoder = EncoderModel(input_dim, repr_dim, power=1.0, hidden=(hidden,),
                           seed=derive_seed(seed, "enc"))
    decoder = DecoderModel(repr_dim, classes, hidden=(hidden,),
                           seed=derive_seed(seed, "dec"))
    return encoder, decoder


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
            logq = decoder.log_posterior_all(z + noise).data
            total += -logq[np.arange(4), y].sum()
        assert parts.total.item() == pytest.approx(total / 12.0, rel=1e-12)

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
            logq = decoder.log_posterior_all(z + noise).data
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
        assert parts.total.item() == pytest.approx(parts.cross_entropy + expected, rel=1e-12)

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
        assert parts.total.item() == pytest.approx(expected_ce + expected_penalty, rel=1e-12)

    def test_every_parameter_gradient_matches_finite_differences(self):
        """Full loss (lambda=1, L=2) on a k=2, C=3, 8-hidden-unit pair."""
        encoder, decoder = small_models(9)
        x = CounterRng(10).normals(12).reshape(4, 3)
        y = np.array([0, 1, 2, 1])

        def loss_value():
            return regularized_loss(x, y, encoder, decoder, sigma2=0.05,
                                    coeff=0.5 * 1.0 * 0.05, noise_draws=2,
                                    rng=CounterRng(11)).total.item()

        parts = regularized_loss(x, y, encoder, decoder, sigma2=0.05,
                                 coeff=0.5 * 1.0 * 0.05, noise_draws=2, rng=CounterRng(11))
        wrt = encoder.params.tensors() + decoder.params.tensors()
        grad_map = ad.backward(parts.total, wrt)
        for model in (encoder, decoder):
            for name, tensor in model.params.items():
                fd = finite_diff_grad(loss_value, tensor.data)
                assert max_rel_err(grad_map[tensor].data, fd) <= 1e-4

    def test_negative_sigma2_rejected(self):
        encoder, decoder = small_models(12)
        with pytest.raises(ValueError):
            regularized_loss(np.ones((1, 3)), np.array([0]), encoder, decoder,
                             sigma2=-0.1, coeff=0.0, noise_draws=1, rng=CounterRng(0))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = ad.ParamSet()
        params.add("w", ad.Tensor(np.array([1.0, -2.0])))
        state = AdamState.init(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        """Bias correction makes the first update ~ lr * sign(gradient)."""
        params = ad.ParamSet()
        params.add("w", ad.Tensor(np.array([0.0])))
        state = AdamState.init(params)
        adam_step(params, {"w": np.array([0.37])}, state, lr=0.01)
        assert params["w"].data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_converges_on_quadratic(self):
        """100 steps on f(w) = w^2 from w = 1 with lr 0.1 reaches |w| < 0.1."""
        params = ad.ParamSet()
        params.add("w", ad.Tensor(np.array([1.0])))
        state = AdamState.init(params)
        for _ in range(100):
            gradient = {"w": 2.0 * params["w"].data}
            adam_step(params, gradient, state, lr=0.1)
        assert abs(params["w"].data[0]) < 0.1

    def test_shape_mismatch_rejected(self):
        params = ad.ParamSet()
        params.add("w", ad.Tensor(np.zeros(2)))
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3)}, AdamState.init(params), lr=0.1)


class TestTrainLoop:
    def test_zero_epochs_leaves_models_unchanged(self):
        encoder, decoder = small_models(20)
        before_enc = encoder.params.state()
        before_dec = decoder.params.state()
        ds = make_blobs(3, 10, dim=3, spread=0.3, seed=21)
        _, _, log = train(TrainConfig(epochs=0, seed=0), ds, encoder, decoder)
        assert log.rows == []
        for name, value in before_enc.items():
            np.testing.assert_array_equal(encoder.params[name].data, value)
        for name, value in before_dec.items():
            np.testing.assert_array_equal(decoder.params[name].data, value)

    def test_same_config_and_seed_bitwise_identical(self):
        ds = make_blobs(3, 20, dim=3, spread=0.3, seed=22)
        results = []
        for _ in range(2):
            encoder, decoder = small_models(23)
            train(TrainConfig(lam=0.3, epochs=3, batch_size=16, seed=24,
                              psnr=FixedPsnr(15.0)), ds, encoder, decoder)
            results.append((encoder.params.state(), decoder.params.state()))
        for name in results[0][0]:
            np.testing.assert_array_equal(results[0][0][name], results[1][0][name])
        for name in results[0][1]:
            np.testing.assert_array_equal(results[0][1][name], results[1][1][name])

    def test_separable_blobs_reach_95_percent(self):
        ds = make_blobs(4, 50, dim=4, spread=0.3, seed=25)
        encoder, decoder = small_models(26, input_dim=4, repr_dim=4, classes=4, hidden=16)
        _, _, log = train(TrainConfig(lam=0.0, epochs=50, batch_size=32, seed=27,
                                      psnr=FixedPsnr(20.0)), ds, encoder, decoder)
        assert log.rows[-1].accuracy >= 0.95

    def test_uniform_psnr_regime_runs_and_differs_from_fixed(self):
        ds = make_blobs(3, 20, dim=3, spread=0.3, seed=28)
        final = {}
        for tag, psnr in (("fixed", FixedPsnr(15.0)),
                          ("uniform", UniformPsnr(10.0, 25.0))):
            encoder, decoder = small_models(29)
            train(TrainConfig(lam=0.2, epochs=2, batch_size=16, seed=30, psnr=psnr),
                  ds, encoder, decoder)
            final[tag] = encoder.params.state()
        assert any(not np.array_equal(final["fixed"][n], final["uniform"][n])
                   for n in final["fixed"])

    def test_divergence_aborts_with_snapshot(self):
        ds = make_blobs(2, 10, dim=3, spread=0.3, seed=31)
        encoder, decoder = small_models(32, classes=2)
        decoder.params["b0"].data[0] = np.nan  # poisoned state -> NaN loss
        with pytest.raises(TrainDivergenceError) as info:
            train(TrainConfig(lam=0.0, epochs=1, seed=33), ds, encoder, decoder)
        assert info.value.snapshot["epoch"] == 0 and info.value.snapshot["batch"] == 0

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
                _, _, log = train(TrainConfig(lam=lam, epochs=20, batch_size=32,
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

    def test_rayleigh_penalty_rejected(self):
        """The h-conditional fading penalty is not implemented, so lambda > 0 is refused."""
        with pytest.raises(ValueError, match="Rayleigh"):
            TrainConfig(lam=0.5, family="rayleigh")
        assert TrainConfig(lam=0.0, family="rayleigh").family == "rayleigh"


class TestTrainLog:
    def test_rows_strictly_increasing(self):
        log = TrainLog()
        log.append(EpochStats(0, 1.0, 0.0, 0.5, 0.1))
        with pytest.raises(ValueError):
            log.append(EpochStats(0, 0.9, 0.0, 0.6, 0.1))

    def test_csv_round_trip_values(self, tmp_path):
        log = TrainLog()
        log.append(EpochStats(0, 1.25, 0.5, 0.75, 0.001))
        log.append(EpochStats(1, 0.5, 0.25, 1.0, 0.002))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert lines[1] == "epoch,cross_entropy,fisher_penalty,accuracy"
        assert lines[2].split(",")[1] == "1.25"
