"""Posterior-robustness math: the Fisher-information trace and the row-wise KL.

The central object is the Fisher information matrix of the decoder posterior
at a representation z,

    I(z) = sum_y q(y|z) * grad_z log q(y|z) grad_z log q(y|z)^T,

whose trace, scaled by half the channel noise variance, approximates the
expected KL divergence between the noise-free posterior q(.|z) and the noisy
posterior q(.|z_hat) to second order. That scaled trace is the closed-form
training penalty. Its independent check, the Monte-Carlo expected KL, samples
channel noise in `experiments`, which reads the KL from `_kl_rows`; nothing
here draws noise.

The trace has a closed form for the decoder family the package builds (relu
hidden layers, a log-softmax head), computed in NumPy by `_ClosedForm` from
the decoder's own forward, kept layer by layer. `fisher_trace_node` records
it as one `autodiff.Tensor` node whose vector-Jacobian products are computed
in the same closed form, so the penalty can sit inside a training loss
without a backward pass inside the forward; `mean_fisher_trace` reads the
same closed form as a value.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .models import DecoderModel, _batch_values, _class_sum, _mlp_backprop, check_finite

TRACE_CHUNK = 512           # representations per closed-form block in mean_fisher_trace


def _kl_rows(log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """KL(p || q) along the last axis from log-posteriors, log_p broadcast against log_q,
    which it overwrites; every log is finite (`_log_softmax`), so p = 0 gives a 0 term."""
    np.subtract(log_p, log_q, out=log_q)
    return _class_sum(np.multiply(np.exp(log_p), log_q, out=log_q))


class _ClosedForm:
    """Tr(I(z_i)) per row of a decoder batch and its vector-Jacobian products, in NumPy.

    The decoder is affine layers with relu between them and a log-softmax
    head. Per row, M = d logits / dz is the k x C product W0 D0 W1 D1 ... W_last
    of the weights and the relu masks D_i = diag(a_i > 0); relu'' = 0 almost
    everywhere and relu'(0) = 0, so the masks are constants. Column c of
    D = M - (Mq)1^T is grad_z log q(c|z), and the trace is the sum of
    nonnegative terms sum_c q_c ||D_c||^2. The difference form
    sum_c q_c ||M_c||^2 - ||Mq||^2 is the same number but cancels on rows
    whose posterior is nearly one-hot, and so does M_r - Mq for the most
    probable class r; D is therefore built from the differences M_c - M_r.

    Every product is a 2-D matmul. The first mask enters linearly: the rows'
    W0 D0 W1 are m0 @ E with E[d, k, e] = W0[k, d] W1[d, e], one matrix for the
    batch. Deeper layers push each row's k Jacobian rows on as b*k rows.
    """

    def __init__(self, decoder: DecoderModel, z):
        self.layers = []                     # each layer's (input, weight), kept by the forward
        self.q = np.exp(decoder._log_posterior(z, self.layers))
        self.weights = [weight for _, weight in self.layers]
        # Each hidden relu's mask, from its output: the next layer's input.
        self.masks = [(h > 0.0).astype(np.float64) for h, _ in self.layers[1:]]
        depth = len(self.layers)

        batch, k = self.layers[0][0].shape
        if depth == 1:
            jac = np.broadcast_to(self.weights[0], (batch, k, decoder.num_classes))
        else:
            self.pair = self.weights[0].T[:, :, None] * self.weights[1][:, None, :]
            jac = (self.masks[0] @ self.pair.reshape(len(self.pair), -1)).reshape(batch, k, -1)
        self.deeper = []                     # layer i >= 2's Jacobian input, [b*k, width]
        for weight, mask in zip(self.weights[2:], self.masks[1:]):
            self.deeper.append((jac * mask[:, None, :]).reshape(batch * k, -1))
            jac = (self.deeper[-1] @ weight).reshape(batch, k, -1)
        # D from the columns' differences to the most probable class r, so D_r is the small
        # sum -sum_j q_j (M_j - M_r), not M_r minus a nearly equal Mq.
        top = np.argmax(self.q, axis=1)[:, None, None]
        delta = jac - np.take_along_axis(jac, top, axis=2)
        self.diff = delta - delta @ self.q[:, :, None]              # D, [b, k, C]
        self.norms = np.einsum("bkc,bkc->bc", self.diff, self.diff)
        self.trace = check_finite(np.einsum("bc,bc->b", self.q, self.norms))

    def gradients(self, weight: np.ndarray) -> list[np.ndarray]:
        """d(sum_i weight_i Tr(I(z_i))) for z, then W0, b0, W1, b1, ..."""
        batch, k, _ = self.diff.shape
        depth = len(self.weights)
        # Through the posterior: d logits, then the decoder's ordinary backprop.
        d_a = weight[:, None] * self.q * (self.norms - self.trace[:, None])
        d_z, *grads = _mlp_backprop(self.layers, d_a)
        d_weights = grads[0::2]             # the same arrays: += below adds into grads
        # Through the Jacobian: dT/dM = 2 D diag(q), back along the product that built M.
        d_jac = (2.0 * weight[:, None, None]) * self.diff * self.q[:, None, :]
        for i in reversed(range(2, depth)):
            flat = d_jac.reshape(batch * k, -1)
            d_weights[i] += self.deeper[i - 2].T @ flat
            d_jac = (flat @ self.weights[i].T).reshape(batch, k, -1) * self.masks[i - 1][:, None, :]
        if depth == 1:
            d_weights[0] += d_jac.sum(axis=0)
        else:
            d_pair = (self.masks[0].T @ d_jac.reshape(batch, -1)).reshape(self.pair.shape)
            d_weights[0] += np.einsum("dke,de->kd", d_pair, self.weights[1])
            d_weights[1] += np.einsum("dke,kd->de", d_pair, self.weights[0])
        return [d_z, *grads]


def fisher_trace_node(decoder: DecoderModel, z_node: ad.Tensor) -> ad.Tensor:
    """Per-sample Tr(I(z)) = sum_y q(y|z) ||grad_z log q(y|z)||^2 as one node, shape [b].

    Its parents are z_node and the decoder's parameters; all of their gradients
    come from one `_ClosedForm.gradients` call per upstream gradient.
    """
    form = _ClosedForm(decoder, z_node.data)
    return ad.Tensor(form.trace, (z_node, *decoder.params.values()), form.gradients)


def mean_fisher_trace(decoder: DecoderModel, z_batch: np.ndarray) -> float:
    """Mean Tr(I(z_i)) over a batch [b, k] of representations; a k-vector is a batch of
    one, as `decode` takes it. ValueError for an empty batch, which has no mean."""
    z_batch = _batch_values(z_batch, decoder.repr_dim, "decoder expects representations")
    if not len(z_batch):
        raise ValueError("the mean Fisher trace needs at least one representation, got none")
    total = 0.0
    for start in range(0, z_batch.shape[0], TRACE_CHUNK):
        total += float(_ClosedForm(decoder, z_batch[start:start + TRACE_CHUNK]).trace.sum())
    return total / z_batch.shape[0]
