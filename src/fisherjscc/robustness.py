"""Posterior-robustness quantities: Fisher-information trace and sampled KL.

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
training loss and be differentiated once more.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import autodiff as ad
from .channel import channel_noise
from .models import DecoderModel
from .rng import CounterRng

KL_LOG_CLAMP = 1e-12
TRACE_CHUNK = 512           # representations per fisher_trace_node call in mean_fisher_trace
KL_CHUNK_ROWS = 65536       # decoded rows per block of noise draws in _expected_kl_rows


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) along the last axis, p broadcast against q; entries below 1e-12 are
    clamped inside the logs, 0 * log 0 is 0."""
    q = np.maximum(q, KL_LOG_CLAMP)
    terms = np.where(p > 0.0, p * (np.log(np.maximum(p, KL_LOG_CLAMP)) - np.log(q)), 0.0)
    return terms.sum(axis=-1)


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


def mean_fisher_trace(decoder: DecoderModel, z_batch: np.ndarray) -> float:
    """Mean Tr(I(z_i)) over a batch of representations."""
    z_batch = np.asarray(z_batch, dtype=np.float64)
    total = 0.0
    for start in range(0, z_batch.shape[0], TRACE_CHUNK):
        node = fisher_trace_node(decoder, ad.Tensor(z_batch[start:start + TRACE_CHUNK]))
        total += float(node.data.sum())
    return total / z_batch.shape[0]


def _expected_kl_rows(decoder: DecoderModel, z_batch: np.ndarray, sigma2: float,
                      samples: int, rng: CounterRng) -> np.ndarray:
    """KL(q(.|z_i) || q(.|z_i + noise)) per AWGN draw: returns array [n, samples].

    A Rayleigh row conditioned on its h is the same quantity at sigma2 / |h|^2.

    The draws come in blocks of about KL_CHUNK_ROWS decoded rows. One helper
    thread draws block i+1 while this thread decodes block i; it is the only
    user of rng and draws the blocks in order, so the values are those of a
    serial loop. It runs under the caller's numpy error policy.
    """
    n, k = z_batch.shape
    out = np.empty((n, samples))
    draws_per_chunk = max(1, KL_CHUNK_ROWS // max(n, 1))
    takes = [min(draws_per_chunk, samples - done) for done in range(0, samples, draws_per_chunk)]
    error_policy = np.geterr()      # the helper thread does not inherit the caller's np.errstate

    def draw(take: int) -> np.ndarray:
        with np.errstate(**error_policy):
            z_hat = channel_noise((take, n, k), sigma2, "awgn", rng)
            z_hat += z_batch      # in place; noise + z and z + noise are the same bits
        return z_hat

    # Leaving the `with` joins the helper, after a raise too; a draw still pending
    # then is discarded, since the caller's exception is the one to report.
    with ThreadPoolExecutor(max_workers=1) as helper:
        block = helper.submit(draw, takes[0]) if takes else None
        p = decoder.decode(z_batch)
        done = 0
        for i, take in enumerate(takes):
            z_hat = block.result()
            if i + 1 < len(takes):
                block = helper.submit(draw, takes[i + 1])
            q = decoder.decode(z_hat.reshape(take * n, k)).reshape(take, n, -1)
            out[:, done:done + take] = _kl_rows(p, q).T
            done += take
    return out
