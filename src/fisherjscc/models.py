"""Power-constrained MLP encoder and categorical MLP decoder.

The encoder maps inputs to a k-dimensional representation and enforces the
per-symbol peak power budget P by construction: the final layer output is
squashed through sqrt(P) * tanh, so every coordinate satisfies z_i^2 <= P.
The decoder maps a (possibly noise-corrupted) representation to a
categorical posterior over classes.

Each model has one forward, in NumPy (`_mlp_values`). Evaluation reads its
values (`encode`, `decode`) and builds no graph; the Monte-Carlo checks
decode their noisy draws in column layout
(`DecoderModel._log_posterior_columns`). Training reads each model as one
`autodiff.Tensor` node (`forward_node`, `log_posterior_all`) whose value
comes from the same forward, kept layer by layer, and whose gradients come
from one MLP backprop (`_mlp_backprop`) behind the model's head: sqrt(P) *
tanh for the encoder, log-softmax for the decoder. `robustness` reads the
decoder's kept forward for the Fisher trace. Every product runs in the order
of the tests' reference tape, so the gradients are that reference's bits. The
forward checks its input, each affine output and the log-posteriors finite
where it makes them (`check_finite`, which `robustness` and `train` import
from here); the tape checks no value.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import autodiff as ad
from .data import Normalizer, number_array
from .rng import CounterRng, derive_seed

CHECKPOINT_FORMAT = "fisherjscc-checkpoint"
CHECKPOINT_VERSION = 2


def check_finite(values: np.ndarray) -> np.ndarray:
    """values itself; FloatingPointError if it holds a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise FloatingPointError("computed a non-finite value (a NaN or an infinity)")
    return values


def _power_sqrt_floor(power: float) -> float:
    """Largest double s with s*s <= power, so saturation cannot break the budget."""
    s = math.sqrt(power)
    while s * s > power:
        s = math.nextafter(s, 0.0)
    return s


def _param_shapes(sizes, prefix: str) -> dict[str, tuple]:
    """The shape of each parameter of an MLP of layer widths `sizes`: W{i} is
    (fan_in, fan_out) and b{i} (fan_out,), in the order W0, b0, W1, b1, ... of
    `_mlp_backprop`'s gradients. ValueError for a width below 1."""
    if min(sizes) < 1:
        raise ValueError(f"{prefix} layer widths must be >= 1, got {list(sizes)}")
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes[f"W{i}"], shapes[f"b{i}"] = (fan_in, fan_out), (fan_out,)
    return shapes


def _init_params(sizes, seed: int, prefix: str) -> dict[str, ad.Tensor]:
    """Glorot-uniform weights W{i} and zero biases b{i}, drawn from a labeled substream,
    in the order of `_param_shapes`."""
    shapes = _param_shapes(sizes, prefix)
    params = {}
    for i in range(len(sizes) - 1):
        fan_in, fan_out = shapes[f"W{i}"]
        rng = CounterRng(derive_seed(seed, prefix, "layer", i))
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = (rng.uniforms(fan_in * fan_out) * 2.0 - 1.0) * limit
        params[f"W{i}"] = ad.Tensor(w.reshape(fan_in, fan_out))
        params[f"b{i}"] = ad.Tensor(np.zeros(fan_out))
    return params


def _mlp_values(params: dict[str, ad.Tensor], h: np.ndarray, n_layers: int,
                layers: list | None = None) -> np.ndarray:
    """Affine layers with relu between them, none after the last; the last affine output.

    The bias add and relu work in place on the fresh matmul output, so one
    [rows, width] buffer per layer is alive. Each affine output is checked
    finite; relu cannot make it non-finite. Given a list `layers`, each
    layer's (input, weight) pair is appended to it for `_mlp_backprop`.
    """
    for i in range(n_layers):
        weight = params[f"W{i}"].data
        if layers is not None:
            layers.append((h, weight))
        h = h @ weight
        h += params[f"b{i}"].data
        check_finite(h)
        if i < n_layers - 1:
            np.maximum(h, 0.0, out=h)
    return h


def _mlp_backprop(layers: list, d_out: np.ndarray) -> list[np.ndarray]:
    """[d input, dW0, db0, dW1, db1, ...] of the forward `_mlp_values` kept in `layers`,
    from d_out, the gradient of its last affine output.

    A hidden relu's mask is read back from its output, the next layer's input,
    as > 0, so relu'(0) = 0.
    """
    grads = []
    for i in reversed(range(len(layers))):
        h, weight = layers[i]
        grads[:0] = (h.T @ d_out, d_out.sum(axis=0))
        d_out = d_out @ weight.T
        if i > 0:
            d_out *= h > 0.0
    return [d_out, *grads]


FOLD_CLASSES = 8     # fewer columns than this are reduced by folding them; see _class_max


def _class_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1) of a row-major copy of a, bit for bit: the columns folded with
    np.maximum, left to right.

    NumPy's reduction over a short last axis costs about 25 times the fold on
    a [16384, 3] block. From FOLD_CLASSES columns on NumPy reduces each row in
    SIMD blocks, which can break a tie between -0.0 and 0.0 the other way, so
    the reduction is NumPy's own there, over rows made contiguous: on a strided
    last axis, such as a transposed [C, b] block's, NumPy folds instead.
    """
    if a.shape[-1] >= FOLD_CLASSES:
        return np.ascontiguousarray(a).max(axis=-1)
    out = a[..., 0].copy()
    for c in range(1, a.shape[-1]):
        np.maximum(out, a[..., c], out=out)
    return out


def _class_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) of a row-major copy of a, bit for bit: 0.0 plus the columns added
    left to right.

    That is NumPy's own order for rows of fewer than FOLD_CLASSES entries (the
    0.0 start turns a sum of -0.0s into 0.0, as NumPy's does); from there on
    NumPy adds in pairwise blocks, so the sum is NumPy's own, over rows made
    contiguous: on a strided last axis NumPy adds left to right instead. The
    fold costs about a ninth of NumPy's reduction on a [16384, 3] block.
    """
    if a.shape[-1] >= FOLD_CLASSES:
        return np.ascontiguousarray(a).sum(axis=-1)
    out = a[..., 0] + 0.0
    for c in range(1, a.shape[-1]):
        out += a[..., c]
    return out


def _batch_values(x, width: int, expects: str) -> np.ndarray:
    """x as a finite row-major float64 [b, width] array, a width-vector as one row,
    without a graph; ValueError for another shape. Row-major, because a product's bits
    can depend on its operand's memory order. The Monte-Carlo checks' noisy blocks are
    decoded in column layout instead (`DecoderModel._log_posterior_columns`)."""
    h = np.asarray(x, dtype=np.float64)
    shape = (1, *h.shape) if h.ndim == 1 else h.shape
    if len(shape) != 2:
        raise ValueError(f"expected a vector or a batch of vectors, got shape {shape}")
    if shape[-1] != width:
        raise ValueError(f"{expects} of dimension {width}, got {shape[-1]}")
    return check_finite(np.ascontiguousarray(h.reshape(shape)))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """The log-softmax of logits over the last axis, in place: logits itself, checked
    finite, for finite logits more than the largest double apart overflow the shift."""
    logits -= _class_max(logits)[..., None]
    logits -= np.log(_class_sum(np.exp(logits)))[..., None]
    return check_finite(logits)


SLICE_COLUMNS = 1024     # widest column product of `DecoderModel._log_posterior_columns`


def _column_slices(columns: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest slices of at most SLICE_COLUMNS columns that cover
    `columns`, of about equal width, every slice but the last a multiple of 8 wide: so
    no slice is one column (a gemv, with other bits) unless `columns` is 1."""
    slices = max(1, -(-columns // SLICE_COLUMNS))
    bounds = [8 * -(-(i * columns) // (8 * slices)) for i in range(slices)] + [columns]
    return list(zip(bounds, bounds[1:]))


class EncoderModel:
    """Deterministic encoder x -> z with max_i z_i^2 <= power by construction."""

    def __init__(self, input_dim: int, repr_dim: int, power: float,
                 hidden=(64, 64), seed: int = 0, *, _params: dict | None = None):
        if power <= 0.0:
            raise ValueError("power budget must be positive")
        self.sizes = (int(input_dim), *(int(h) for h in hidden), int(repr_dim))
        self.power = float(power)
        if _params is None:     # `load_checkpoint` passes the stored ones: nothing is drawn
            _params = _init_params(self.sizes, int(seed), "encoder")
        self.params = _params
        self._scale = _power_sqrt_floor(self.power)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def repr_dim(self) -> int:
        return self.sizes[-1]

    def _pre_activation(self, x, layers: list | None = None) -> np.ndarray:
        h = _batch_values(x, self.input_dim, "encoder expects inputs")
        return _mlp_values(self.params, h, len(self.sizes) - 1, layers)

    def forward_node(self, x) -> ad.Tensor:
        """z = sqrt(P) tanh(MLP(x)) as one node, shape [b, k], whose parents are the
        parameters; x is data, not a node. The value is `encode(x)`'s, bit for bit."""
        layers = []
        t = np.tanh(self._pre_activation(x, layers))
        z = t * self._scale

        def gradients(g: np.ndarray) -> list[np.ndarray]:
            return _mlp_backprop(layers, (g * self._scale) * (1.0 - t * t))[1:]

        return ad.Tensor(z, self.params.values(), gradients)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """z = sqrt(P) tanh(MLP(x)) per row, built without a graph."""
        z = self._pre_activation(x)
        np.tanh(z, out=z)
        z *= self._scale
        peak = float(np.max(z * z)) if z.size else 0.0
        if peak > self.power:
            raise AssertionError(f"power constraint violated: max z_i^2 = {peak} > {self.power}")
        return z


class DecoderModel:
    """Categorical decoder z -> q(y|z) via an MLP head and row-wise softmax."""

    def __init__(self, repr_dim: int, num_classes: int, hidden=(64,), seed: int = 1, *,
                 _params: dict | None = None):
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        self.sizes = (int(repr_dim), *(int(h) for h in hidden), int(num_classes))
        if _params is None:     # `load_checkpoint` passes the stored ones: nothing is drawn
            _params = _init_params(self.sizes, int(seed), "decoder")
        self.params = _params

    @property
    def repr_dim(self) -> int:
        return self.sizes[0]

    @property
    def num_classes(self) -> int:
        return self.sizes[-1]

    def log_posterior_all(self, z: ad.Tensor) -> ad.Tensor:
        """log q(y|z) for every class as one node, shape [b, C]; the node z has shape
        [b, k] or [k]. The value is `_log_posterior(z.data)`'s."""
        layers = []
        log_q = self._log_posterior(z.data, layers)

        def gradients(g: np.ndarray) -> list[np.ndarray]:
            # The log-softmax rule, then the MLP's.
            return _mlp_backprop(layers, g - np.exp(log_q) * g.sum(axis=1, keepdims=True))

        return ad.Tensor(log_q, (z, *self.params.values()), gradients)

    def _log_posterior(self, z, layers: list | None = None) -> np.ndarray:
        """log q(y|z) for every class, [b, C], built without a graph; given a list
        `layers`, each layer's input and weight are kept there (see `_mlp_values`)."""
        h = _batch_values(z, self.repr_dim, "decoder expects representations")
        return _log_softmax(_mlp_values(self.params, h, len(self.sizes) - 1, layers))

    def _log_posterior_columns(self, columns: np.ndarray) -> np.ndarray:
        """log q(y|z) of each column z of a [k, b] array, checked finite, as the [b, C]
        transpose of a [C, b] array: `_log_posterior`'s forward in column layout.

        The hidden layers run over column slices of at most SLICE_COLUMNS
        (`_column_slices`): each is W.T @ a plus b[:, None], checked finite,
        relu in place, so one [width, slice] buffer per layer is alive. Each
        slice's last product goes into one [C, b] array, which takes the last
        bias and the finite check once, and whose transpose the log-softmax
        takes. As a row-major product's bits can depend on its row count, a
        column product's can depend on its column count (README, "Memory"); with
        the slices capped, the Taylor table of an 8-64-3 decoder does not depend
        on the chunk width. The slices of a sweep block span its trials, so at some
        shapes a trial's bits are not those of the trial decoded alone.
        """
        check_finite(columns)
        *hidden, last = range(len(self.sizes) - 1)
        logits = np.empty((self.num_classes, columns.shape[1]))
        for start, stop in _column_slices(columns.shape[1]):
            a = columns[:, start:stop]
            for i in hidden:
                a = self.params[f"W{i}"].data.T @ a
                a += self.params[f"b{i}"].data[:, None]
                np.maximum(check_finite(a), 0.0, out=a)
            np.matmul(self.params[f"W{last}"].data.T, a, out=logits[:, start:stop])
        del a       # the last slice's activations, before the log-softmax's temporaries
        logits += self.params[f"b{last}"].data[:, None]
        return _log_softmax(check_finite(logits).T)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Posterior rows (each sums to 1) of a vector or a batch [b, k]; argmax ties
        resolve to the lowest index. A [T, b, k] stack is refused, as `encode` refuses
        one."""
        log_q = self._log_posterior(z)
        return np.exp(log_q, out=log_q)


def save_checkpoint(path, encoder: EncoderModel, decoder: DecoderModel,
                    normalizer: Normalizer | None = None) -> None:
    """Write both models and the normalizer (null for raw features) to a versioned JSON
    document that round-trips bitwise: per model its layer widths `sizes` and its
    parameters as one flat list, in `_param_shapes` order.

    Floats are serialized with shortest-round-trip repr, so load after save
    reproduces every parameter bit for bit.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "power": encoder.power,
        **{name: {"sizes": list(model.sizes),
                  "params": np.concatenate([t.data for t in model.params.values()],
                                           axis=None).tolist()}
           for name, model in (("encoder", encoder), ("decoder", decoder))},
        "normalizer": None if normalizer is None else normalizer.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_checkpoint(path):
    """Read a checkpoint; returns (encoder, decoder, normalizer), the normalizer None
    only where the file holds null: raw features.

    Raises ValueError for a document that is not a checkpoint of this version
    (an older one asks to re-train), that lacks a key, whose power is not a finite
    number, whose model sections do not hold integer sizes and a params list of
    as many JSON numbers as those sizes imply (a bool or a numeric string is not
    one), all finite and each fitting a float (`data.number_array`), whose decoder
    does not take the encoder's representations, or whose normalizer
    `Normalizer.from_dict` refuses or has another width than the encoder's input.
    The models' parameters are views of the stored lists; no initialization is
    drawn, and nothing is allocated at the declared sizes.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a checkpoint file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}; this "
                         f"release reads version {CHECKPOINT_VERSION}: re-train the model")
    power = doc.get("power")
    # Compared exactly, so NaN, inf and an integer too large for a float all fail.
    if not (_is_int(power) or isinstance(power, float)) or not abs(power) <= sys.float_info.max:
        raise ValueError(f"power must be a finite number, got {power!r}")
    if "normalizer" not in doc:
        raise ValueError("the checkpoint has no normalizer key (null for raw features)")
    sizes, stored = [], []
    for name in ("encoder", "decoder"):
        section = doc.get(name)
        if not isinstance(section, dict):
            raise ValueError(f"{name} must be an object with sizes and params")
        widths = section.get("sizes")
        if not (isinstance(widths, list) and len(widths) >= 2 and all(map(_is_int, widths))):
            raise ValueError(f"{name}.sizes must be a list of at least two integers, "
                             f"got {widths!r}")
        # The count is integer arithmetic on the sizes, so a file declaring huge layers
        # is refused here without an allocation at the declared sizes.
        shapes = _param_shapes(widths, name)
        counts = [math.prod(shape) for shape in shapes.values()]
        count = sum(counts)
        data = section.get("params")
        if not (isinstance(data, list) and len(data) == count):
            raise ValueError(f"{name}.params must be a list of the {count} numbers its "
                             f"sizes imply")
        parts = np.split(number_array(data, f"{name}.params"), np.cumsum(counts[:-1]))
        stored.append({param: ad.Tensor(part.reshape(shape))
                       for (param, shape), part in zip(shapes.items(), parts)})
        sizes.append(widths)

    enc_sizes, dec_sizes = sizes
    if dec_sizes[0] != enc_sizes[-1]:
        raise ValueError(f"the decoder takes representations of dimension {dec_sizes[0]}, "
                         f"the encoder makes {enc_sizes[-1]}")
    normalizer = doc["normalizer"]
    if normalizer is not None:
        normalizer = Normalizer.from_dict(normalizer)
        if normalizer.mean.shape + normalizer.std.shape != (enc_sizes[0],) * 2:
            raise ValueError(f"the normalizer does not have {enc_sizes[0]} features")
    encoder = EncoderModel(enc_sizes[0], enc_sizes[-1], power, hidden=enc_sizes[1:-1],
                           _params=stored[0])
    decoder = DecoderModel(dec_sizes[0], dec_sizes[-1], hidden=dec_sizes[1:-1],
                           _params=stored[1])
    return encoder, decoder, normalizer
