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

The tape checks every value it records, and a training step runs with
numpy's overflow, divide and invalid errors raised, so a step that turns
non-finite raises FloatingPointError; `train` reports it as a
TrainDivergenceError with the step's epoch, batch and sigma2 (CLI exit 4).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .channel import FAMILIES, channel_noise, psnr_to_sigma2
from .models import DecoderModel, EncoderModel, save_checkpoint
from .rng import CounterRng, derive_seed
from .robustness import fisher_trace_node

TRAINLOG_SCHEMA = "fisherjscc.trainlog.v1"


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


@dataclass
class TrainLog:
    rows: list[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        if self.rows and stats.epoch <= self.rows[-1].epoch:
            raise ValueError("epochs must be strictly increasing")
        self.rows.append(stats)

    def to_csv(self, path) -> None:
        """Write the per-epoch rows; byte-identical for identical runs.

        Wall time stays on the in-memory rows only: serializing a measured
        duration would make otherwise identical runs produce different bytes.
        """
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# schema={TRAINLOG_SCHEMA}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "cross_entropy", "fisher_penalty", "accuracy"])
            for r in self.rows:
                writer.writerow([r.epoch, repr(r.cross_entropy), repr(r.fisher_penalty),
                                 repr(r.accuracy)])


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

    The L noise draws go through one decoder pass over z tiled L times; draw
    l fills rows l*b .. (l+1)*b - 1 and is drawn in the same order as a
    per-draw loop would draw it. `train` passes coeff = lambda * sigma2 / 2,
    or lambda under the fixed-PSNR simplification.
    """
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be nonnegative")
    if noise_draws < 1:
        raise ValueError("noise_draws must be >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    batch = labels.shape[0]

    z = encoder.forward_node(features)
    noise = np.concatenate([channel_noise(z.data.shape, sigma2, family, rng)
                            for _ in range(noise_draws)])
    z_hat = ad.add(ad.tile_rows(z, noise_draws), ad.Tensor(noise))
    log_likelihood = decoder.log_posterior_batch(z_hat, np.tile(labels, noise_draws))
    ce = ad.scale(ad.sum_all(log_likelihood), -1.0 / (batch * noise_draws))

    if coeff == 0.0:
        return LossParts(total=ce, cross_entropy=ce.item(), fisher_penalty=0.0)

    trace = fisher_trace_node(decoder, z)
    penalty = ad.scale(ad.sum_all(trace), coeff / batch)
    return LossParts(total=ad.add(ce, penalty), cross_entropy=ce.item(),
                     fisher_penalty=penalty.item())


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: ad.ParamSet) -> "AdamState":
        return cls(m={n: np.zeros_like(t.data) for n, t in params.items()},
                   v={n: np.zeros_like(t.data) for n, t in params.items()})


def adam_step(params: ad.ParamSet, grads: dict[str, np.ndarray],
              state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One bias-corrected Adam update; mutates params in place, returns state."""
    state.t += 1
    correction1 = 1.0 - beta1**state.t
    correction2 = 1.0 - beta2**state.t
    for name, tensor in params.items():
        g = grads[name]
        if g.shape != tensor.data.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


def _accuracy(encoder: EncoderModel, decoder: DecoderModel,
              features: np.ndarray, labels: np.ndarray) -> float:
    predictions = decoder.predict(encoder.encode(features))
    return float(np.mean(predictions == labels))


def train(config: TrainConfig, dataset, encoder: EncoderModel, decoder: DecoderModel,
          checkpoint_dir=None, checkpoint_every: int | None = None):
    """Run the configured epochs of shuffled mini-batch Adam.

    Returns (encoder, decoder, TrainLog); the models are updated in place.
    A non-finite value anywhere in a step (the tape's FloatingPointError, or
    numpy's for an overflow) aborts with a TrainDivergenceError carrying the
    epoch, batch and sigma2 of that step.
    """
    features, labels = dataset.features, dataset.labels
    if len(features) == 0:
        raise ValueError("dataset is empty")
    n = features.shape[0]

    # Joint parameter view: encoder and decoder are updated by one optimizer.
    grads_template = [("enc", encoder.params), ("dec", decoder.params)]
    states = {tag: AdamState.init(params) for tag, params in grads_template}

    log = TrainLog()
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
            wrt = encoder.params.tensors() + decoder.params.tensors()
            try:
                # An overflow in numpy raises the tape's exception type where it happens.
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    parts = regularized_loss(features[idx], labels[idx], encoder, decoder,
                                             sigma2, coeff, config.noise_draws,
                                             noise_rng, family=config.family)
                    grad_map = ad.backward(parts.total, wrt)
                    for tag, params in grads_template:
                        grads = {name: grad_map[tensor].data
                                 for name, tensor in params.items()}
                        adam_step(params, grads, states[tag], config.learning_rate)
            except FloatingPointError as exc:
                raise TrainDivergenceError(
                    {"epoch": epoch, "batch": batch_index, "sigma2": sigma2}) from exc

            ce_total += parts.cross_entropy
            reg_total += parts.fisher_penalty
            batches += 1

        log.append(EpochStats(
            epoch=epoch,
            cross_entropy=ce_total / batches,
            fisher_penalty=reg_total / batches,
            accuracy=_accuracy(encoder, decoder, features, labels),
            seconds=time.perf_counter() - started,
        ))
        if checkpoint_dir is not None and checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            save_checkpoint(f"{checkpoint_dir}/checkpoint_epoch{epoch + 1:04d}.json",
                            encoder, decoder)
    return encoder, decoder, log
