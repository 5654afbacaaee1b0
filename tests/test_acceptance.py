"""Acceptance suite: one test per release criterion, tolerances pinned.

Criteria 4, 5, and 6 share one set of trained model pairs (5 seeds, with and
without the penalty) built by a module-scoped fixture; everything is seeded,
so each run reproduces the same numbers. Run with -s to see the PASS lines.
"""

import hashlib
import time

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc.channel import channel_noise, draw_fading_coefficients, psnr_to_sigma2
from fisherjscc.cli import EXIT_OK, main
from fisherjscc.data import make_rings
from fisherjscc.experiments import error_sweep, taylor_validation
from fisherjscc.models import DecoderModel, EncoderModel
from fisherjscc.rng import CounterRng, derive_seed
from fisherjscc.robustness import _kl_rows, mean_fisher_trace
from fisherjscc.train import FixedPsnr, TrainConfig, regularized_loss, train

from _oracles import finite_diff_grad, finite_diff_hessian, fisher_matrix, max_rel_err, spearman


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


TREND_SEEDS = (1000, 1001, 1002, 1003, 1004)
TREND_LAMBDA = 0.5          # inside the required [0.3, 1] band
RING_NOISE = 0.15
TRAIN_PSNR_DB = 20.0


@pytest.fixture(scope="module")
def trend_pairs():
    """Five shared-seed (penalized, plain) model pairs trained at 20 dB AWGN."""
    pairs = {}
    for seed in TREND_SEEDS:
        data_seed = derive_seed(seed, "data")
        train_set = make_rings(3, 200, RING_NOISE, seed=data_seed)
        test_set = make_rings(3, 200, RING_NOISE, seed=data_seed, split="test")
        for lam in (0.0, TREND_LAMBDA):
            encoder = EncoderModel(2, 8, power=1.0, hidden=(64, 64),
                                   seed=derive_seed(seed, "enc"))
            decoder = DecoderModel(8, 3, hidden=(64,), seed=derive_seed(seed, "dec"))
            config = TrainConfig(lam=lam, noise_draws=4, epochs=60, batch_size=64,
                                 seed=seed, psnr=FixedPsnr(TRAIN_PSNR_DB),
                                 omit_sigma2=(lam > 0))
            train(config, train_set, encoder, decoder)
            pairs[(seed, lam)] = (encoder, decoder, test_set)
    return pairs


def test_criterion_1_gradient_correctness():
    """Every parameter gradient of the full loss (lambda=1, L=2) vs central FD."""
    started = time.perf_counter()
    encoder = EncoderModel(3, 2, power=1.0, hidden=(8,), seed=derive_seed(11, "enc"))
    decoder = DecoderModel(2, 3, hidden=(8,), seed=derive_seed(11, "dec"))
    features = CounterRng(12).normals(12).reshape(4, 3)
    labels = np.array([0, 1, 2, 1])
    sigma2 = psnr_to_sigma2(15.0, 1.0)

    def loss_value():
        return regularized_loss(features, labels, encoder, decoder, sigma2,
                                coeff=0.5 * 1.0 * sigma2, noise_draws=2,
                                rng=CounterRng(13)).total.data.item()

    parts = regularized_loss(features, labels, encoder, decoder, sigma2,
                             coeff=0.5 * 1.0 * sigma2, noise_draws=2, rng=CounterRng(13))
    grad_map = ad.backward(parts.total,
                           [*encoder.params.values(), *decoder.params.values()])
    worst = 0.0
    for model in (encoder, decoder):
        for name, tensor in model.params.items():
            fd = finite_diff_grad(loss_value, tensor.data, step=1e-5)
            worst = max(worst, max_rel_err(grad_map[tensor], fd))
    elapsed = time.perf_counter() - started
    report(1, "gradient correctness", worst <= 1e-4 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_second_order_identities():
    """At 50 random (model, z) points: KL gradient vanishes at z_hat = z and
    the finite-difference KL Hessian equals the Fisher matrix."""
    started = time.perf_counter()
    worst_gradient, worst_hessian = 0.0, 0.0
    for trial in range(50):
        decoder = DecoderModel(4, 3 + trial % 3, hidden=(10,),
                               seed=derive_seed(500, "model", trial))
        rng = CounterRng(derive_seed(500, "perturb", trial))
        for name, tensor in decoder.params.items():
            tensor.data += 0.6 * rng.normals(tensor.data.size).reshape(tensor.data.shape)
        z = CounterRng(derive_seed(500, "z", trial)).normals(4) * 0.7
        reference = decoder._log_posterior(z)
        point = z.copy()

        def kl_at(p):
            return float(_kl_rows(reference, decoder._log_posterior(p))[0])

        gradient = finite_diff_grad(lambda: kl_at(point), point, step=1e-5)
        worst_gradient = max(worst_gradient, float(np.max(np.abs(gradient))))

        hessian = finite_diff_hessian(kl_at, z.copy(), step=5e-5)
        gap = float(np.max(np.abs(hessian - fisher_matrix(decoder, z))))
        worst_hessian = max(worst_hessian, gap)
    elapsed = time.perf_counter() - started
    ok = worst_gradient <= 1e-6 and worst_hessian <= 1e-3 and elapsed < 30.0
    report(2, "second-order identities", ok,
           f"max |grad| {worst_gradient:.2e}, max Hessian gap {worst_hessian:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_3_expected_kl_vs_penalty():
    """Sampled expected KL against the closed-form penalty on a trained model.

    The smoothing weight is calibrated so the desk-scale MLP is inside the
    regime where the second-order approximation holds at the tested noise
    levels; everything is seeded and reproducible.
    """
    started = time.perf_counter()
    seed = 505
    data_seed = derive_seed(seed, "data")
    train_set = make_rings(3, 200, RING_NOISE, seed=data_seed)
    test_set = make_rings(3, 200, RING_NOISE, seed=data_seed, split="test")
    encoder = EncoderModel(2, 8, power=1.0, hidden=(64, 64), seed=derive_seed(seed, "enc"))
    decoder = DecoderModel(8, 3, hidden=(64,), seed=derive_seed(seed, "dec"))
    train(TrainConfig(lam=1.35, noise_draws=4, epochs=60, batch_size=64, seed=seed,
                      psnr=FixedPsnr(15.0), omit_sigma2=True), train_set, encoder, decoder)

    psnr_grid = (25.0, 20.0, 15.0, 10.0)
    sigma2_grid = [psnr_to_sigma2(p, encoder.power) for p in psnr_grid]
    rows = taylor_validation(encoder, decoder, test_set.features[:256], sigma2_grid,
                             samples=10_000, seed=99)
    ratios = [row.ratio for row in rows]
    in_band = all(0.8 <= ratios[i] <= 1.2 for i in range(3))  # PSNR >= 15 dB rows
    distances = [abs(r - 1.0) for r in ratios]
    closest = int(np.argmin(distances))
    # The ratio approaches 1 in trend as sigma2 decreases along the grid.
    monotone = spearman(sigma2_grid, distances) > 0.0
    elapsed = time.perf_counter() - started
    ok = in_band and closest == 0 and monotone and elapsed < 300.0
    report(3, "expected-KL vs penalty", ok,
           f"ratios {[round(r, 4) for r in ratios]}, closest row {closest}, "
           f"monotone trend {monotone}, {elapsed:.0f}s")


def test_criterion_4_low_psnr_robustness_trend(trend_pairs):
    """Penalized models beat their plain twins at 5 dB test in >= 4 of 5 seeds."""
    started = time.perf_counter()
    wins, details = 0, []
    for seed in TREND_SEEDS:
        errors = {}
        for lam in (0.0, TREND_LAMBDA):
            encoder, decoder, test_set = trend_pairs[(seed, lam)]
            [sweep] = error_sweep([(encoder, decoder)], test_set, [5.0], "awgn",
                                  trials=20, seed=derive_seed(seed, "awgn-sweep"))
            errors[lam] = sweep[0].error_rate
        wins += errors[TREND_LAMBDA] < errors[0.0]
        details.append(f"{errors[0.0]:.4f}->{errors[TREND_LAMBDA]:.4f}")
    elapsed = time.perf_counter() - started
    report(4, "low-PSNR robustness trend", wins >= 4 and elapsed < 600.0,
           f"wins {wins}/5 ({', '.join(details)})")


def test_criterion_5_rayleigh_transfer_trend(trend_pairs):
    """AWGN-trained penalized models transfer better to Rayleigh fading:
    lower error at every test PSNR <= 15 dB, majority over 5 seeds."""
    started = time.perf_counter()
    grid = [5.0, 10.0, 15.0]
    seed_wins = 0
    for seed in TREND_SEEDS:
        sweeps = {}
        for lam in (0.0, TREND_LAMBDA):
            encoder, decoder, test_set = trend_pairs[(seed, lam)]
            [sweeps[lam]] = error_sweep([(encoder, decoder)], test_set, grid, "rayleigh",
                                        trials=20, seed=derive_seed(seed, "ray-sweep"))
        all_better = all(
            sweeps[TREND_LAMBDA][i].error_rate < sweeps[0.0][i].error_rate
            for i in range(len(grid)))
        seed_wins += all_better
    elapsed = time.perf_counter() - started
    report(5, "Rayleigh transfer trend", seed_wins >= 3 and elapsed < 600.0,
           f"seeds better at every PSNR<=15: {seed_wins}/5")


def test_criterion_6_penalty_tracking(trend_pairs):
    """Penalized training lowers mean Tr(I(z)) on the test set, >= 4 of 5 seeds."""
    wins, details = 0, []
    for seed in TREND_SEEDS:
        traces = {}
        for lam in (0.0, TREND_LAMBDA):
            encoder, decoder, test_set = trend_pairs[(seed, lam)]
            traces[lam] = mean_fisher_trace(decoder, encoder.encode(test_set.features))
        wins += traces[TREND_LAMBDA] <= traces[0.0]
        details.append(f"{traces[0.0]:.3f}->{traces[TREND_LAMBDA]:.3f}")
    report(6, "penalty tracking", wins >= 4, f"wins {wins}/5 ({', '.join(details)})")


def test_criterion_7_channel_statistics():
    """10^5 AWGN draws at sigma2 = 0.1 and 10^5 |h|^2 draws hit their bands."""
    noise = channel_noise((100_000, 1), 0.1, "awgn", CounterRng(20_000))
    variance = float(noise.var())
    h = draw_fading_coefficients(100_000, CounterRng(20_001))
    mean_power = float((np.abs(h) ** 2).mean())
    ok = 0.095 <= variance <= 0.105 and 0.98 <= mean_power <= 1.02
    report(7, "channel statistics", ok,
           f"sample variance {variance:.5f}, |h|^2 mean {mean_power:.5f}")


def test_criterion_8_reproducibility(tmp_path):
    """One (config, seed): two full CLI runs give byte-identical artifacts."""
    digests = {"checkpoint.json": [], "trainlog.csv": [], "sweep.csv": []}
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        data_dir = base / "data"
        config = base / "run.ini"
        base.mkdir()
        config.write_text(f"""
[run]
seed = 4242
out = {data_dir}

[data]
kind = rings
classes = 3
per_class_train = 60
per_class_test = 60
spread = 0.15
dir = {data_dir}

[model]
repr_dim = 4
encoder_hidden = 16
decoder_hidden = 16

[train]
lambda = 0.4
epochs = 3
batch_size = 32

[channel]
psnr_db = 15.0

[experiment]
kind = sweep
psnr_grid = 5,15
trials = 5
checkpoint = {base / "model" / "checkpoint.json"}
""")
        assert main(["gen-data", "--config", str(config)]) == EXIT_OK
        assert main(["train", "--config", str(config),
                     "--out", str(base / "model")]) == EXIT_OK
        assert main(["eval", "--config", str(config),
                     "--out", str(base / "eval")]) == EXIT_OK
        digests["checkpoint.json"].append(
            hashlib.sha256((base / "model" / "checkpoint.json").read_bytes()).hexdigest())
        digests["trainlog.csv"].append(
            hashlib.sha256((base / "model" / "trainlog.csv").read_bytes()).hexdigest())
        digests["sweep.csv"].append(
            hashlib.sha256((base / "eval" / "sweep.csv").read_bytes()).hexdigest())
    ok = all(values[0] == values[1] for values in digests.values())
    report(8, "reproducibility", ok,
           "byte-identical checkpoint, train log, and sweep CSV")


def test_criterion_9_power_constraint(trend_pairs):
    """max_i z_i^2 <= P on every encoding produced by the trained models.

    encode() additionally asserts the bound on every call, so any violation
    during the training and sweeps above would already have failed the run.
    """
    worst = 0.0
    checked = 0
    for (seed, lam), (encoder, decoder, test_set) in trend_pairs.items():
        train_set = make_rings(3, 200, RING_NOISE,
                               seed=derive_seed(seed, "data"), split="train")
        for features in (train_set.features, test_set.features):
            z = encoder.encode(features)
            worst = max(worst, float(np.max(z * z)))
            checked += z.shape[0]
    # Saturation stress: enormous pre-activations still respect the budget.
    stress = EncoderModel(2, 4, power=3.0, hidden=(8,), seed=1)
    stress.params[f"b{len(stress.sizes) - 2}"].data[:] = 1e6
    z = stress.encode(np.ones((8, 2)))
    stress_peak = float(np.max(z * z))
    ok = worst <= 1.0 and stress_peak <= 3.0
    report(9, "power constraint", ok,
           f"max z^2 = {worst:.6f} over {checked} encodings; saturated peak "
           f"{stress_peak:.12f} <= 3.0")
