"""Posterior-robustness quantities: exact KL, Fisher information, sampled KL.

The central object is the Fisher information matrix of the decoder posterior
at a representation z,

    I(z) = sum_y q(y|z) * grad_z log q(y|z) grad_z log q(y|z)^T,

whose trace, scaled by half the channel noise variance, approximates the
expected KL divergence between the noise-free posterior q(.|z) and the noisy
posterior q(.|z_hat) to second order. That scaled trace is the closed-form
training penalty; the Monte-Carlo expected KL here is its independent check.

The trace is computed exactly and recorded on the tape. The batch of
representations is tiled once per class, so one decoder forward and one
backward pass give every per-class input-gradient as a tape node; with the
posterior weights q(y|z) kept differentiable, the trace can sit inside a
training loss and be differentiated once more. `fisher_trace`,
`fisher_matrix` and `fisher_trace_node` all read the same stacked pass.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .channel import channel_noise
from .models import DecoderModel
from .rng import CounterRng

logger = logging.getLogger(__name__)

KL_LOG_CLAMP = 1e-12


def kl_categorical(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for two categorical distributions over the same classes.

    q entries are clamped below at 1e-12 before the log; 0 * log 0 is 0.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"expected two distributions of equal length, got {p.shape}, {q.shape}")
    for name, dist in (("p", p), ("q", q)):
        if np.any(dist < 0.0):
            raise ValueError(f"distribution {name} has negative entries")
        if abs(dist.sum() - 1.0) > 1e-9:
            raise ValueError(f"distribution {name} sums to {dist.sum()!r}, not 1")
    if np.any(q < KL_LOG_CLAMP):
        logger.debug("kl_categorical clamped %d entries below %g",
                     int(np.sum(q < KL_LOG_CLAMP)), KL_LOG_CLAMP)
    q = np.maximum(q, KL_LOG_CLAMP)
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p_i || q_i) with the same clamping rule, no validation."""
    q = np.maximum(q, KL_LOG_CLAMP)
    terms = np.where(p > 0.0, p * (np.log(np.maximum(p, KL_LOG_CLAMP)) - np.log(q)), 0.0)
    return terms.sum(axis=1)


def _class_terms(decoder: DecoderModel, z_node: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    """q(y|z_i) as a [C, b] node and grad_z log q(y|z_i) as a [C, b, k] node.

    z is tiled once per class on the tape, so one decoder forward and one
    backward pass cover every class: row y*b + i of the tiled batch asks for
    class y at z_i, and the decoder treats rows independently. Both returned
    nodes stay attached to the graph that produced z_node, so expressions of
    them remain differentiable.
    """
    batch, k = z_node.data.shape
    classes = decoder.num_classes
    tiled = ad.tile_rows(z_node, classes)
    labels = np.repeat(np.arange(classes, dtype=np.int64), batch)
    logq = ad.gather_labels(decoder.log_posterior_all(tiled), labels)
    grads = ad.backward(ad.sum_all(logq), [tiled])[tiled]
    return (ad.reshape(ad.exp(logq), (classes, batch)),
            ad.reshape(grads, (classes, batch, k)))


def fisher_trace_node(decoder: DecoderModel, z_node: ad.Tensor) -> ad.Tensor:
    """Per-sample Tr(I(z)) = sum_y q(y|z) ||grad_z log q(y|z)||^2 as a node, shape [b]."""
    probs, grads = _class_terms(decoder, z_node)
    return ad.sum_axis(ad.mul(probs, ad.sum_axis(ad.square(grads), 2)), 0)


def _single_point(z: np.ndarray) -> ad.Tensor:
    """A single representation z[k] as a [1, k] leaf."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("expected a single representation vector z[k]")
    return ad.Tensor(z.reshape(1, -1))


def fisher_trace(decoder: DecoderModel, z: np.ndarray) -> float:
    """Exact Tr(I(z)) at a single representation z[k]."""
    return float(fisher_trace_node(decoder, _single_point(z)).data[0])


def fisher_matrix(decoder: DecoderModel, z: np.ndarray) -> np.ndarray:
    """Full k x k Fisher information matrix at a single representation z[k]."""
    probs, grads = _class_terms(decoder, _single_point(z))
    gradients = grads.data[:, 0, :]                              # [C, k]
    return np.einsum("c,ci,cj->ij", probs.data[:, 0], gradients, gradients)


def mean_fisher_trace(decoder: DecoderModel, z_batch: np.ndarray,
                      chunk: int = 512) -> float:
    """Mean Tr(I(z_i)) over a batch of representations."""
    z_batch = np.asarray(z_batch, dtype=np.float64)
    total = 0.0
    for start in range(0, z_batch.shape[0], chunk):
        node = fisher_trace_node(decoder, ad.Tensor(z_batch[start:start + chunk]))
        total += float(node.data.sum())
    return total / z_batch.shape[0]


def _expected_kl_rows(decoder: DecoderModel, z_batch: np.ndarray, sigma2: float,
                      samples: int, rng: CounterRng, chunk_rows: int = 65536) -> np.ndarray:
    """KL(q(.|z_i) || q(.|z_i + noise)) per AWGN draw: returns array [n, samples].

    A Rayleigh row conditioned on its h is the same quantity at sigma2 / |h|^2.
    """
    n, k = z_batch.shape
    p = decoder.decode(z_batch)
    out = np.empty((n, samples))
    draws_per_chunk = max(1, chunk_rows // max(n, 1))
    done = 0
    while done < samples:
        take = min(draws_per_chunk, samples - done)
        z_hat = z_batch[None, :, :] + channel_noise((take, n, k), sigma2, "awgn", rng)
        q = decoder.decode(z_hat.reshape(take * n, k)).reshape(take, n, -1)
        for s in range(take):
            out[:, done + s] = _kl_rows(p, q[s])
        done += take
    return out
