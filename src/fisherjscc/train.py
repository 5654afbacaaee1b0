"""Regularized training: noise-averaged cross-entropy plus the Fisher penalty.

The per-batch objective is

    (1/N) sum_i { -(1/L) sum_l log q(y_i | z_i + n_{i,l})
                  + lambda * (sigma2 / 2) * Tr(I(z_i)) }

where z_i is the noise-free encoding of x_i, the n_{i,l} are fresh channel
noise draws, and the penalty is evaluated at the noise-free z_i. Models
trained at a fixed PSNR may instead use the simplified penalty
lambda * Tr(I(z)) (the noise variance folded into lambda); that variant is
exposed as the `omit_sigma2` flag and is off by default so lambda keeps the
same meaning across PSNRs. Either way `regularized_loss` receives the
penalty's multiplier as one coefficient, set per step by `train`.

A step records five `autodiff.Tensor` nodes and runs one `backward` over
them: the encoder, the L noisy copies of z stacked into one batch, the
decoder over that batch, the Fisher trace at the noise-free z, and the loss.
Each node's value and gradients are computed in NumPy; the loss node picks
each row's label, sums and scales the cross-entropy and the trace, and its
gradient places the scale back at the labels and on every trace entry. The
L noise copies are one (L, b, k) `channel_noise` block, for AWGN and Rayleigh
alike; under Rayleigh each (draw, row) gets its own h.

`train` holds both models' parameters in one float64 vector for the whole
run; each parameter's array is a view of its slice. A step concatenates the
leaf gradients once, in the same order, and `adam_step` updates the vector
and its moments with whole-vector operations.

Each forward value is checked finite where `models` and `robustness` compute
it, and a step checks its loss and its concatenated gradient vector once,
before `adam_step`; it runs with numpy's overflow, divide and invalid errors
raised. So a step that turns non-finite raises FloatingPointError, and
`train` reports it as a TrainDivergenceError with the step's epoch, batch and
sigma2 (CLI exit 4) before any parameter changes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .channel import FAMILIES, channel_noise, psnr_to_sigma2
from .models import DecoderModel, EncoderModel, check_finite
from .rng import CounterRng, derive_seed
from .robustness import fisher_trace_node

TRAINLOG_SCHEMA = "fisherjscc.trainlog.v1"
# The trainlog's columns, EpochStats fields. Wall time stays on the in-memory
# stats only: a measured duration would give identical runs different bytes.
TRAINLOG_HEADER = ("epoch", "cross_entropy", "fisher_penalty", "accuracy")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8    # adam_step's: Adam's textbook settings


@dataclass(frozen=True)
class FixedPsnr:
    psnr_db: float


@dataclass(frozen=True)
class UniformPsnr:
    low_db: float
    high_db: float

    def __post_init__(self):
        if not self.low_db < self.high_db:
            raise ValueError("UniformPsnr needs low_db < high_db")


@dataclass
class TrainConfig:
    lam: float = 0.0
    noise_draws: int = 4            # L: channel draws per datum per step
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    psnr: FixedPsnr | UniformPsnr = FixedPsnr(20.0)
    family: str = "awgn"
    omit_sigma2: bool = False       # fixed-PSNR simplification: penalty lambda * Tr(I)

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lambda must be nonnegative")
        if self.noise_draws < 1:
            raise ValueError("noise_draws must be >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown channel family {self.family!r}")
        if self.family == "rayleigh" and self.lam > 0.0:
            # The paper's fading penalty is conditional on h, sigma2/(2|h|^2) Tr(I);
            # the penalty here is the AWGN form, so the pair is refused.
            raise ValueError("a Fisher penalty (lambda > 0) under Rayleigh fading "
                             "needs the h-conditional penalty, which is not implemented")
        if isinstance(self.psnr, UniformPsnr) and self.omit_sigma2:
            raise ValueError("omit_sigma2 only makes sense at a fixed training PSNR")


@dataclass
class EpochStats:
    epoch: int
    cross_entropy: float
    fisher_penalty: float
    accuracy: float
    seconds: float


class TrainDivergenceError(RuntimeError):
    """A training step produced a non-finite value; carries a diagnostic snapshot."""

    def __init__(self, snapshot: dict):
        super().__init__(f"training diverged at epoch {snapshot.get('epoch')}, "
                         f"batch {snapshot.get('batch')}")
        self.snapshot = snapshot


class LossParts(NamedTuple):
    total: ad.Tensor       # scalar node, differentiable w.r.t. both parameter sets
    cross_entropy: float
    fisher_penalty: float


def regularized_loss(features: np.ndarray, labels: np.ndarray,
                     encoder: EncoderModel, decoder: DecoderModel,
                     sigma2: float, coeff: float, noise_draws: int,
                     rng: CounterRng, family: str = "awgn") -> LossParts:
    """Noise-averaged cross-entropy plus coeff times the mean Fisher trace at noise-free z.

    The L noise draws are one (L, b, k) `channel_noise` block and go through one
    decoder pass; draw l fills rows l*b .. (l+1)*b - 1. `train` passes
    coeff = lambda * sigma2 / 2, or lambda under the fixed-PSNR simplification.
    """
    if noise_draws < 1:
        raise ValueError("noise_draws must be >= 1")
    z = encoder.forward_node(features)
    batch, k = z.data.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (batch,) or labels.min() < 0 or labels.max() >= decoder.num_classes:
        raise ValueError(f"expected one label in [0, {decoder.num_classes}) per row")

    noisy = channel_noise((noise_draws, batch, k), sigma2, family, rng)
    noisy += z.data         # in place; noise + z and z + noise are the same bits
    # Row l*b + i is z_i plus its l-th draw, so z_i's gradient sums its L rows.
    z_hat = ad.Tensor(noisy.reshape(noise_draws * batch, k), (z,),
                      lambda g: [g.reshape(noise_draws, batch, k).sum(axis=0)])
    log_q = decoder.log_posterior_all(z_hat)
    picked = (np.arange(batch * noise_draws), np.tile(labels, noise_draws))
    ce_scale = -1.0 / (batch * noise_draws)
    cross_entropy = float(log_q.data[picked].sum() * ce_scale)
    d_cross_entropy = np.zeros(log_q.data.shape)      # d cross_entropy / d log_q
    d_cross_entropy[picked] = ce_scale

    if coeff == 0.0:
        total = ad.Tensor(cross_entropy, (log_q,), lambda g: [g * d_cross_entropy])
        return LossParts(total=total, cross_entropy=cross_entropy, fisher_penalty=0.0)

    trace = fisher_trace_node(decoder, z)
    penalty_scale = coeff / batch
    penalty = float(trace.data.sum() * penalty_scale)
    total = ad.Tensor(cross_entropy + penalty, (log_q, trace),
                      lambda g: [g * d_cross_entropy, np.full(batch, g * penalty_scale)])
    return LossParts(total=total, cross_entropy=cross_entropy, fisher_penalty=penalty)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update of the parameter vector theta; updates theta,
    state.m and state.v in place and returns state.

    Each element sees the textbook order of operations, BETA1*m + (1-BETA1)*g,
    BETA2*v + ((1-BETA2)*g)*g and theta - (lr*m_hat)/(sqrt(v_hat)+EPS), in
    whole-vector operations with two temporaries.
    """
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    state.t += 1
    correction1 = 1.0 - BETA1**state.t
    correction2 = 1.0 - BETA2**state.t
    m, v = state.m, state.v
    scratch = np.multiply(grad, 1.0 - BETA1)
    m *= BETA1
    m += scratch
    np.multiply(grad, 1.0 - BETA2, out=scratch)
    scratch *= grad
    v *= BETA2
    v += scratch
    np.divide(v, correction2, out=scratch)          # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += EPS
    update = np.divide(m, correction1)              # m_hat
    update *= lr
    update /= scratch
    theta -= update
    return state


def _accuracy(encoder: EncoderModel, decoder: DecoderModel,
              features: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose most probable class (the argmax of `decode`'s posterior
    row, ties to the lowest index) is the label."""
    predictions = np.argmax(decoder.decode(encoder.encode(features)), axis=1)
    return float(np.mean(predictions == labels))


def train(config: TrainConfig, dataset, encoder: EncoderModel, decoder: DecoderModel,
          on_epoch: Callable[[EpochStats], None] | None = None) -> list[EpochStats]:
    """Run the configured epochs of shuffled mini-batch Adam.

    Returns the stats of each epoch in order; the models are updated in place.
    `on_epoch`, if given, is called with each epoch's stats once that epoch's
    updates are done, so it sees the models as they stand after the epoch.
    A non-finite value anywhere in a step (a forward value, the loss or the
    gradient vector, each checked finite, or numpy's FloatingPointError for an
    overflow) aborts with a TrainDivergenceError carrying the epoch, batch and
    sigma2 of that step, before Adam updates any parameter.
    """
    features, labels = dataset.features, dataset.labels
    if len(features) == 0:
        raise ValueError("dataset is empty")
    n = features.shape[0]

    # One parameter vector for both models: each leaf's array becomes a view of its slice.
    leaves = [*encoder.params.values(), *decoder.params.values()]
    theta = np.concatenate([leaf.data for leaf in leaves], axis=None)
    start = 0
    for leaf in leaves:
        leaf.data = theta[start:start + leaf.data.size].reshape(leaf.data.shape)
        start += leaf.data.size
    state = AdamState.init(theta)

    log = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = CounterRng(derive_seed(config.seed, "shuffle", epoch)).permutation(n)
        ce_total, reg_total, batches = 0.0, 0.0, 0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            if isinstance(config.psnr, FixedPsnr):
                sigma2 = psnr_to_sigma2(config.psnr.psnr_db, encoder.power)
            else:
                psnr_rng = CounterRng(derive_seed(config.seed, "psnr", epoch, batch_index))
                psnr_db = psnr_rng.uniform(config.psnr.low_db, config.psnr.high_db)
                sigma2 = psnr_to_sigma2(psnr_db, encoder.power)
            noise_rng = CounterRng(derive_seed(config.seed, "noise", epoch, batch_index))

            coeff = config.lam if config.omit_sigma2 else 0.5 * config.lam * sigma2
            try:
                # An overflow in numpy raises the finite checks' exception type where it happens.
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    parts = regularized_loss(features[idx], labels[idx], encoder, decoder,
                                             sigma2, coeff, config.noise_draws,
                                             noise_rng, family=config.family)
                    check_finite(parts.total.data)
                    grad_map = ad.backward(parts.total, leaves)
                    grad = check_finite(np.concatenate([grad_map[leaf] for leaf in leaves],
                                                       axis=None))
                    adam_step(theta, grad, state, config.learning_rate)
            except FloatingPointError as exc:
                raise TrainDivergenceError(
                    {"epoch": epoch, "batch": batch_index, "sigma2": sigma2}) from exc

            ce_total += parts.cross_entropy
            reg_total += parts.fisher_penalty
            batches += 1

        stats = EpochStats(
            epoch=epoch,
            cross_entropy=ce_total / batches,
            fisher_penalty=reg_total / batches,
            accuracy=_accuracy(encoder, decoder, features, labels),
            seconds=time.perf_counter() - started,
        )
        log.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    return log
