"""Independent numerical oracles shared across the test suite.

These deliberately avoid the library's own differentiation paths: gradients
come from central finite differences on plain float evaluations, Hessians
from second differences, and high-precision reference values from fsum or
mpmath. Expected values asserted in tests were computed with these oracles.
The one exception is the per-class Fisher reference, which runs the tape one
class at a time so the library's stacked pass has a structurally different
path to be compared with.
"""

from __future__ import annotations

import math

import numpy as np


def finite_diff_grad(f, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. an array it reads."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + step
        f_plus = f()
        array[idx] = original - step
        f_minus = f()
        array[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def finite_diff_hessian(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian of scalar f(x) for a 1-D point x."""
    k = x.shape[0]
    hessian = np.zeros((k, k))
    f0 = f(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = step
        hessian[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / step**2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = step
            value = (f(x + ei + ej) - f(x + ei - ej)
                     - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * step**2)
            hessian[i, j] = value
            hessian[j, i] = value
    return hessian


def max_rel_err(analytic: np.ndarray, reference: np.ndarray,
                floor: float = 1e-6) -> float:
    """Worst relative error with an absolute floor for near-zero entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(reference)), floor)
    return float(np.max(np.abs(analytic - reference) / denom))


def kl_reference(p, q, clamp: float = 1e-12) -> float:
    """KL divergence by exactly-rounded summation (math.fsum)."""
    terms = []
    for pi, qi in zip(p, q):
        if pi > 0.0:
            terms.append(pi * (math.log(pi) - math.log(max(qi, clamp))))
    return math.fsum(terms)


def softmax_reference(logits, dps: int = 50) -> np.ndarray:
    """Softmax evaluated in mpmath arbitrary precision, rounded to float64."""
    import mpmath

    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in logits]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def per_class_fisher(decoder, z_node):
    """Tr(I(z)) node [b] and the per-class input-gradients, one backward per class.

    The gradients come back as a list over classes of [b, k] nodes next to the
    [b, C] log-posterior node; the trace sums q(y|z) ||grad||^2 class by class.
    """
    from fisherjscc import autodiff as ad

    logq = decoder.log_posterior_all(z_node)
    batch = z_node.data.shape[0]
    trace, grads = None, []
    for y in range(decoder.num_classes):
        labels = np.full(batch, y, dtype=np.int64)
        picked = ad.gather_labels(logq, labels)
        g = ad.backward(ad.sum_all(picked), [z_node])[z_node]
        grads.append(g)
        term = ad.mul(ad.exp(picked), ad.sum_axis(ad.square(g), 1))
        trace = term if trace is None else ad.add(trace, term)
    return trace, logq, grads


def per_class_fisher_matrix(decoder, z: np.ndarray) -> np.ndarray:
    """k x k Fisher matrix at a single z from the per-class gradients."""
    from fisherjscc import autodiff as ad

    _, logq, grads = per_class_fisher(decoder, ad.Tensor(np.asarray(z).reshape(1, -1)))
    probs = np.exp(logq.data[0])
    gradients = np.stack([g.data[0] for g in grads])
    return np.einsum("c,ci,cj->ij", probs, gradients, gradients)


def fit_linear_probe(train_set, test_set, epochs: int = 80, lr: float = 0.1) -> float:
    """Plain softmax regression on raw features; returns test accuracy.

    Kept separate from the package's encoder/decoder pipeline so dataset
    separability claims are checked by a genuinely linear model.
    """
    from fisherjscc import autodiff as ad
    from fisherjscc.train import AdamState, adam_step

    params = ad.ParamSet()
    params.add("W", ad.Tensor(np.zeros((train_set.dim, train_set.num_classes))))
    params.add("b", ad.Tensor(np.zeros(train_set.num_classes)))
    state = AdamState.init(params)
    for _ in range(epochs):
        logits = ad.affine(ad.Tensor(train_set.features), params["W"], params["b"])
        picked = ad.gather_labels(ad.log_softmax(logits), train_set.labels)
        loss = ad.scale(ad.sum_all(picked), -1.0 / len(train_set))
        grad_map = ad.backward(loss, params.tensors())
        grads = {name: grad_map[t].data for name, t in params.items()}
        adam_step(params, grads, state, lr)
    test_logits = test_set.features @ params["W"].data + params["b"].data
    return float(np.mean(np.argmax(test_logits, axis=1) == test_set.labels))
