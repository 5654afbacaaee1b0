"""Independent numerical oracles shared across the test suite.

These deliberately avoid the library's own differentiation paths: gradients
come from central finite differences on plain float evaluations, Hessians
from second differences, and high-precision reference values from fsum or
mpmath. Expected values asserted in tests were computed with these oracles.

Some use a tape. The library's nodes (`autodiff.Tensor`) are closed-form,
differentiable once, and its `backward` returns arrays. The reference here
is a twice-differentiable tape of its own: a `Tensor` with one
vector-Jacobian product per parent, each written in the tape's own ops, and
a `backward` that returns gradient nodes. Its ops are the glue (`add`,
`scale`, `reshape`, `broadcast_to`, `tile_rows`, `sum_axis`, `sum_all`,
`gather_labels`, `scatter_labels`) and the layers (`affine`, `matmul`,
`transpose`, `relu`, `tanh`, `exp`, `log_softmax`, `mul`, `neg`, `sub`,
`square`), with a tape forward of each model from them (`encoder_tape`,
`decoder_tape`). The models' parameters, library leaves, enter the tape as
leaves. `weighted_sum` is the one library node the tests build: the root
through which they read the library's gradients of a node.

The stacked pass (`_class_terms`, `stacked_fisher_trace`) tiles z once per
class and differentiates the per-class input-gradients a second time; it is
the reference for `robustness.fisher_trace_node`. The per-class Fisher
reference runs one backward per class, so the stacked pass has a
structurally different path to be compared with. The single-point
`fisher_trace` reads the library's node, so the identities checked through
it are checked on the trace that training and evaluation use;
`fisher_matrix` reads the stacked pass.

The Box-Muller, error-sweep and Adam references keep the loop forms the
library replaced with vectorised ones: two word requests per normals call,
one generator and one noise draw per sweep trial, decoded once per PSNR, and one
Adam update per parameter array.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from fisherjscc import autodiff as ad
from fisherjscc.models import check_finite


# ---------------------------------------------------------------------------
# The reference tape: nodes, glue and backward. Each backward rule is written
# in the tape's ops, so its gradients can be differentiated again.


class Tensor:
    """A float64 array plus its position on the reference tape.

    `_vjps[i]` maps the upstream gradient node to the gradient node for
    `_parents[i]`. A rule that needs the node's own output holds it through a
    weak reference: a strong one would make every graph a reference cycle
    that lives until the cyclic collector runs.
    """

    __slots__ = ("data", "_parents", "_vjps", "__weakref__")

    def __init__(self, data, parents=(), vjps=()):
        self.data = check_finite(np.asarray(data, dtype=np.float64))
        self._parents = parents
        self._vjps = vjps

    def item(self) -> float:
        return float(self.data)


def as_tensor(value):
    """value as a tape node; a library leaf (a model parameter, say) stays itself."""
    if isinstance(value, ad.Tensor):
        if value._parents:
            raise TypeError("the reference tape takes library tensors as leaves only")
        return value
    return value if isinstance(value, Tensor) else Tensor(value)


def _sum_to(g: Tensor, shape: tuple) -> Tensor:
    """Reduce a broadcast gradient back to the shape of the original operand."""
    while g.data.ndim > len(shape):
        g = sum_axis(g, 0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.data.shape[axis] != 1:
            g = sum_axis(g, axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        (a, b),
        (lambda g, s=a.data.shape: _sum_to(g, s), lambda g, s=b.data.shape: _sum_to(g, s)),
    )


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    c = float(factor)
    return Tensor(a.data * c, (a,), (lambda g: scale(g, c),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return Tensor(
        a.data.reshape(shape), (a,), (lambda g, s=a.data.shape: reshape(g, s),)
    )


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return Tensor(
        np.broadcast_to(a.data, shape).copy(),
        (a,),
        (lambda g, s=a.data.shape: _sum_to(g, s),),
    )


def tile_rows(a, times: int) -> Tensor:
    """Stack `times` copies of a[b, d] into [times*b, d]; row t*b + i is a[i].

    A composite of reshape and broadcast_to, so its gradient sums the copies.
    """
    a = as_tensor(a)
    rows, cols = a.data.shape
    stacked = broadcast_to(reshape(a, (1, rows, cols)), (times, rows, cols))
    return reshape(stacked, (times * rows, cols))


def sum_axis(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape

    def vjp(g, axis=axis, keepdims=keepdims, in_shape=in_shape):
        if not keepdims:
            kept = list(in_shape)
            kept[axis] = 1
            g = reshape(g, kept)
        return broadcast_to(g, in_shape)

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), (vjp,))


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape

    def vjp(g, in_shape=in_shape):
        return broadcast_to(reshape(g, (1,) * len(in_shape)), in_shape)

    return Tensor(a.data.sum(), (a,), (vjp,))


def gather_labels(a, labels) -> Tensor:
    """Pick a[i, labels[i]] for each row; gradient scatters back to the rows."""
    a = as_tensor(a)
    idx = np.asarray(labels, dtype=np.int64)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise ValueError("gather_labels expects a[b,C] and one label per row")
    if idx.min() < 0 or idx.max() >= a.data.shape[1]:
        raise ValueError("label index out of range")
    rows = np.arange(a.data.shape[0])

    def vjp(g, idx=idx, shape=a.data.shape):
        return scatter_labels(g, idx, shape[1])

    return Tensor(a.data[rows, idx], (a,), (vjp,))


def scatter_labels(g, labels, num_cols: int) -> Tensor:
    """Adjoint of gather_labels: place g[i] at column labels[i] of row i."""
    g = as_tensor(g)
    idx = np.asarray(labels, dtype=np.int64)
    out_data = np.zeros((g.data.shape[0], num_cols))
    out_data[np.arange(g.data.shape[0]), idx] = g.data

    def vjp(g2, idx=idx):
        return gather_labels(g2, idx)

    return Tensor(out_data, (g,), (vjp,))


def backward(root: Tensor, wrt) -> dict:
    """Gradients of a scalar root with respect to the given leaves, as tape nodes.

    Returns {leaf: gradient node}; gradient shapes equal the leaf shapes, and
    an expression of the gradients can be differentiated again. The call
    does not mutate the graph. Only subgraphs that can reach a requested leaf
    are traversed.
    """
    wrt = list(wrt)
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    order = ad._topological_order(root)
    in_graph = {id(n) for n in order}
    for leaf in wrt:
        if id(leaf) not in in_graph:
            raise ValueError("a requested leaf is not reachable from the root")

    wanted = {id(leaf) for leaf in wrt}
    needed: dict[int, bool] = {}
    for node in order:  # parents precede children here
        needed[id(node)] = id(node) in wanted or any(
            needed[id(p)] for p in node._parents
        )

    grads: dict[int, Tensor] = {id(root): Tensor(np.ones_like(root.data))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or not node._parents:     # a leaf, maybe the library's
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if needed[id(parent)]:
                contribution = vjp(g)
                previous = grads.get(id(parent))
                grads[id(parent)] = (contribution if previous is None
                                     else add(previous, contribution))

    result = {}
    for leaf in wrt:
        g = grads[id(leaf)]
        if g.data.shape != leaf.data.shape:
            raise AssertionError("gradient shape does not match leaf shape")
        result[leaf] = g
    return result


def weighted_sum(node, weight=1.0):
    """sum(weight * node) as a library node whose one parent is node; its gradient
    is g * weight. The tests read the library's gradients of a node through it."""
    weight = np.broadcast_to(np.asarray(weight, dtype=np.float64), node.data.shape)
    return ad.Tensor((node.data * weight).sum(), (node,), lambda g: [g * weight])


# ---------------------------------------------------------------------------
# The tape's layers.


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.data, (a,), (lambda g: neg(g),))


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        (a, b),
        (
            lambda g, o=b, s=a.data.shape: _sum_to(mul(g, o), s),
            lambda g, o=a, s=b.data.shape: _sum_to(mul(g, o), s),
        ),
    )


def square(a) -> Tensor:
    return mul(a, a)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    return Tensor(
        a.data @ b.data,
        (a, b),
        (
            lambda g, o=b: matmul(g, transpose(o)),
            lambda g, o=a: matmul(transpose(o), g),
        ),
    )


def transpose(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.T, (a,), (lambda g: transpose(g),))


def relu(a) -> Tensor:
    """relu'(0) = 0: the mask enters as a detached constant."""
    a = as_tensor(a)

    def vjp(g, src=a):
        # Detached mask: derivative 0 at the kink and w.r.t. everything else.
        return mul(g, Tensor((src.data > 0.0).astype(np.float64)))

    return Tensor(np.maximum(a.data, 0.0), (a,), (vjp,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.tanh(a.data), (a,))
    out._vjps = (lambda g, ref=weakref.ref(out): mul(g, sub(1.0, square(ref()))),)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), (a,))
    out._vjps = (lambda g, ref=weakref.ref(out): mul(g, ref()),)
    return out


def affine(inputs, weight, bias) -> Tensor:
    """inputs[b, d_in] @ weight[d_in, d_out] + bias[d_out], shape-checked up front."""
    inputs, weight, bias = as_tensor(inputs), as_tensor(weight), as_tensor(bias)
    if inputs.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ValueError(
            "affine expects input[b,d_in], weight[d_in,d_out], bias[d_out]; got "
            f"{inputs.data.shape}, {weight.data.shape}, {bias.data.shape}"
        )
    if inputs.data.shape[1] != weight.data.shape[0] or weight.data.shape[1] != bias.data.shape[0]:
        raise ValueError(
            f"affine shapes do not conform: {inputs.data.shape}, "
            f"{weight.data.shape}, {bias.data.shape}"
        )
    return add(matmul(inputs, weight), bias)


def log_softmax(logits) -> Tensor:
    """Row-wise log softmax with max subtraction; rows must have >= 2 entries."""
    x = as_tensor(logits)
    if x.data.ndim != 2:
        raise ValueError(f"log_softmax expects a 2-D batch of logits, got {x.data.shape}")
    if x.data.shape[1] < 2:
        raise ValueError("log_softmax needs at least two classes per row")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(out_data, (x,))

    def vjp(g, ref=weakref.ref(out)):
        soft = exp(ref())
        return sub(g, mul(soft, sum_axis(g, 1, keepdims=True)))

    out._vjps = (vjp,)
    return out


def _mlp_tape(params, h, n_layers: int) -> Tensor:
    """Affine layers with relu between them, none after the last."""
    for i in range(n_layers):
        h = affine(h, params[f"W{i}"], params[f"b{i}"])
        if i < n_layers - 1:
            h = relu(h)
    return h


def _rows(x, width: int) -> Tensor:
    """x as a [b, width] node; a vector becomes one row on the tape."""
    node = as_tensor(x)
    return node if node.data.ndim == 2 else reshape(node, (1, width))


def encoder_tape(encoder, x) -> Tensor:
    """`EncoderModel.forward_node(x)` as a tape expression; x may be a leaf."""
    pre = _mlp_tape(encoder.params, _rows(x, encoder.input_dim), len(encoder.sizes) - 1)
    return scale(tanh(pre), encoder._scale)


def decoder_tape(decoder, z) -> Tensor:
    """`DecoderModel.log_posterior_all(z)` as a tape expression, differentiable twice."""
    logits = _mlp_tape(decoder.params, _rows(z, decoder.repr_dim), len(decoder.sizes) - 1)
    return log_softmax(logits)


def log_posterior_by_axis(decoder, z) -> np.ndarray:
    """`DecoderModel._log_posterior` with NumPy's reductions over the class axis, which
    the library's column folds replaced: the tape's log-softmax of the library's logits."""
    from fisherjscc.models import _mlp_values

    h = np.asarray(z, dtype=np.float64)
    return log_softmax(_mlp_values(decoder.params, h, len(decoder.sizes) - 1)).data


# ---------------------------------------------------------------------------
# Finite differences, exact references and the references built on the tape.


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


def kl_reference(log_p, log_q) -> float:
    """The sum of p (log p - log q) over every entry of log_q, log_p broadcast against it,
    by exactly-rounded summation (math.fsum) of terms taken one by one in Python."""
    log_p, log_q = np.broadcast_arrays(np.asarray(log_p, dtype=np.float64),
                                       np.asarray(log_q, dtype=np.float64))
    return math.fsum(math.exp(a) * (a - b) for a, b in zip(log_p.ravel().tolist(),
                                                          log_q.ravel().tolist()))


def softmax_reference(logits, dps: int = 50) -> np.ndarray:
    """Softmax evaluated in mpmath arbitrary precision, rounded to float64."""
    import mpmath

    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in logits]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def _class_terms(decoder, z_node):
    """q(y|z_i) as a [C, b] node and grad_z log q(y|z_i) as a [C, b, k] node.

    z is tiled once per class on the tape, so one decoder forward and one
    backward pass cover every class: row y*b + i of the tiled batch asks for
    class y at z_i, and the decoder treats rows independently. Both returned
    nodes stay attached to the graph that produced z_node, so expressions of
    them remain differentiable.
    """
    batch, k = z_node.data.shape
    classes = decoder.num_classes
    tiled = tile_rows(z_node, classes)
    labels = np.repeat(np.arange(classes, dtype=np.int64), batch)
    logq = gather_labels(decoder_tape(decoder, tiled), labels)
    grads = backward(sum_all(logq), [tiled])[tiled]
    return (reshape(exp(logq), (classes, batch)),
            reshape(grads, (classes, batch, k)))


def stacked_fisher_trace(decoder, z_node):
    """Tr(I(z_i)) as a [b] tape node from `_class_terms`, differentiable twice."""
    probs, grads = _class_terms(decoder, z_node)
    return sum_axis(mul(probs, sum_axis(square(grads), 2)), 0)


def per_class_fisher(decoder, z_node):
    """Tr(I(z)) node [b] and the per-class input-gradients, one backward per class.

    The gradients come back as a list over classes of [b, k] nodes next to the
    [b, C] log-posterior node; the trace sums q(y|z) ||grad||^2 class by class.
    """
    logq = decoder_tape(decoder, z_node)
    batch = z_node.data.shape[0]
    trace, grads = None, []
    for y in range(decoder.num_classes):
        labels = np.full(batch, y, dtype=np.int64)
        picked = gather_labels(logq, labels)
        g = backward(sum_all(picked), [z_node])[z_node]
        grads.append(g)
        term = mul(exp(picked), sum_axis(square(g), 1))
        trace = term if trace is None else add(trace, term)
    return trace, logq, grads


def per_class_fisher_matrix(decoder, z: np.ndarray) -> np.ndarray:
    """k x k Fisher matrix at a single z from the per-class gradients."""
    _, logq, grads = per_class_fisher(decoder, Tensor(np.asarray(z).reshape(1, -1)))
    probs = np.exp(logq.data[0])
    gradients = np.stack([g.data[0] for g in grads])
    return np.einsum("c,ci,cj->ij", probs, gradients, gradients)


def _single_point(z):
    """A single representation z[k] as a [1, k] library leaf, which the library's
    nodes and the reference tape both read."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("expected a single representation vector z[k]")
    return ad.Tensor(z.reshape(1, -1))


def fisher_trace(decoder, z) -> float:
    """Exact Tr(I(z)) at a single representation z[k], from the library's closed-form node."""
    from fisherjscc.robustness import fisher_trace_node

    return float(fisher_trace_node(decoder, _single_point(z)).data[0])


def fisher_matrix(decoder, z) -> np.ndarray:
    """Full k x k Fisher information matrix at a single z[k], from the stacked tape pass."""
    probs, grads = _class_terms(decoder, _single_point(z))
    gradients = grads.data[:, 0, :]                              # [C, k]
    return np.einsum("c,ci,cj->ij", probs.data[:, 0], gradients, gradients)


def expected_kl_rows_serial(decoder, z_batch, sigma2, samples, seed) -> np.ndarray:
    """The [n, samples] KL table of `taylor_validation`'s draws at one sigma2, serially:
    block b holds the library's TAYLOR_BLOCK_ROWS // n draws (the last block the rest) of
    unit normals from CounterRng(derive_seed(seed, "taylor", "block", b)), scaled by
    sqrt(sigma2), added to z and decoded in one call."""
    from fisherjscc import experiments, robustness
    from fisherjscc.rng import CounterRng, derive_seed

    n, k = z_batch.shape
    log_p = decoder._log_posterior(z_batch)
    out = np.empty((n, samples))
    draws_per_block = max(1, experiments.TAYLOR_BLOCK_ROWS // max(n, 1))
    for block, done in enumerate(range(0, samples, draws_per_block)):
        take = min(draws_per_block, samples - done)
        rng = CounterRng(derive_seed(seed, "taylor", "block", block))
        z_hat = rng.normals(take * n * k).reshape(take, n, k) * math.sqrt(sigma2) + z_batch
        log_q = decoder._log_posterior(z_hat.reshape(take * n, k)).reshape(take, n, -1)
        out[:, done:done + take] = robustness._kl_rows(log_p, log_q).T
    return out


def normals_two_calls(rng, n: int) -> np.ndarray:
    """`CounterRng.normals` as two word requests, u1 block then u2 block, each
    transformed into a new array; a multi-stream rng gets a leading stream axis."""
    pairs = (n + 1) // 2
    u1 = ((rng._words(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (rng._words(pairs) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return out[..., :n]


def log_posterior_alone(decoder, z_hat) -> np.ndarray:
    """The [n, C] log-posteriors of one trial's [n, k] noisy copy, decoded on its own in
    column layout, as `experiments.error_sweep` decodes its blocks."""
    return decoder._log_posterior_columns(np.ascontiguousarray(z_hat.T))


def error_sweep_per_trial(encoder, decoder, dataset, psnr_grid, family, trials, seed):
    """`experiments.error_sweep` as a serial loop over trials and PSNRs: each trial
    builds its own single-stream generator and draws one unit-variance noise block,
    which every noisy PSNR scales to its variance and decodes to log-posteriors on
    its own (`log_posterior_alone`)."""
    from fisherjscc.channel import channel_noise, psnr_to_sigma2
    from fisherjscc.experiments import SweepRow
    from fisherjscc.robustness import _kl_rows
    from fisherjscc.rng import CounterRng, derive_seed

    z = encoder.encode(dataset.features)
    log_p_clean = decoder._log_posterior(z)
    labels = dataset.labels
    sigma2_grid = [psnr_to_sigma2(psnr_db, encoder.power) for psnr_db in psnr_grid]
    wrong = [0] * len(sigma2_grid)
    kl_sum = [0.0] * len(sigma2_grid)
    for t in range(trials):
        unit = channel_noise(z.shape, 1.0, family,
                             CounterRng(derive_seed(seed, "sweep", family, 0, t)))
        for i, sigma2 in enumerate(sigma2_grid):
            if sigma2 != 0.0:
                log_q = log_posterior_alone(decoder, z + unit * math.sqrt(sigma2))
                wrong[i] += int(np.sum(np.argmax(log_q, axis=1) != labels))
                kl_sum[i] += float(_kl_rows(log_p_clean, log_q).sum())
    rows = []
    for psnr_db, sigma2, level_wrong, level_kl in zip(psnr_grid, sigma2_grid, wrong, kl_sum):
        if sigma2 == 0.0:
            error = float(np.mean(np.argmax(log_p_clean, axis=1) != labels))
            rows.append(SweepRow(float(psnr_db), family, error, 0.0))
        else:
            rows.append(SweepRow(float(psnr_db), family, level_wrong / (trials * len(labels)),
                                 level_kl / (trials * len(labels))))
    return rows


def sweep_kl_reference(encoder, decoder, dataset, psnr_db, family, trials, seed):
    """`experiments.error_sweep`'s mean_expected_kl at one noisy PSNR, from each trial's
    own generator as in `error_sweep_per_trial`, with every term p (log p - log q) of
    every draw summed by `kl_reference` and the log-posteriors read from
    `log_posterior_alone`; and the smallest log q of the draws."""
    from fisherjscc.channel import channel_noise, psnr_to_sigma2
    from fisherjscc.rng import CounterRng, derive_seed

    z = encoder.encode(dataset.features)
    log_p = decoder._log_posterior(z)
    scale = math.sqrt(psnr_to_sigma2(psnr_db, encoder.power))
    log_q = np.stack([log_posterior_alone(decoder, z + scale * channel_noise(
        z.shape, 1.0, family, CounterRng(derive_seed(seed, "sweep", family, 0, t))))
        for t in range(trials)])
    return kl_reference(log_p, log_q) / (trials * len(z)), float(log_q.min())


class PerParameterAdam:
    """Adam moments per parameter name, for `adam_step_per_parameter`."""

    def __init__(self, params: dict):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.t = 0


def adam_step_per_parameter(params: dict, grads: dict, state: PerParameterAdam, lr: float,
                            beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update, one parameter array at a time: the reference for
    `train.adam_step`'s whole-vector update. Rebinds each tensor's data."""
    state.t += 1
    correction1 = 1.0 - beta1**state.t
    correction2 = 1.0 - beta2**state.t
    for name, tensor in params.items():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def fit_linear_probe(train_set, test_set, epochs: int = 80, lr: float = 0.1) -> float:
    """Plain softmax regression on raw features; returns test accuracy.

    Kept separate from the package's encoder/decoder pipeline so dataset
    separability claims are checked by a genuinely linear model. W and b are
    views of one parameter vector, which the package's Adam updates.
    """
    from fisherjscc.train import AdamState, adam_step

    dim, classes = train_set.dim, train_set.num_classes
    theta = np.zeros(dim * classes + classes)
    params = {"W": Tensor(np.zeros((dim, classes))), "b": Tensor(np.zeros(classes))}
    params["W"].data = theta[:dim * classes].reshape(dim, classes)
    params["b"].data = theta[dim * classes:]
    state = AdamState.init(theta)
    for _ in range(epochs):
        logits = affine(Tensor(train_set.features), params["W"], params["b"])
        picked = gather_labels(log_softmax(logits), train_set.labels)
        loss = scale(sum_all(picked), -1.0 / len(train_set))
        grad_map = backward(loss, list(params.values()))
        grad = np.concatenate([grad_map[t].data for t in params.values()], axis=None)
        adam_step(theta, grad, state, lr)
    test_logits = test_set.features @ params["W"].data + params["b"].data
    return float(np.mean(np.argmax(test_logits, axis=1) == test_set.labels))


def spearman(xs, ys) -> float:
    """Spearman rank correlation, average ranks for ties."""
    def ranks(values):
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        out = np.empty(len(values))
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                j += 1
            out[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float((rx**2).sum() * (ry**2).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)
