"""Power-constrained MLP encoder and categorical MLP decoder.

The encoder maps inputs to a k-dimensional representation and enforces the
per-symbol peak power budget P by construction: the final layer output is
squashed through sqrt(P) * tanh, so every coordinate satisfies z_i^2 <= P.
The decoder maps a (possibly noise-corrupted) representation to a
categorical posterior over classes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import autodiff as ad
from .rng import CounterRng, derive_seed

CHECKPOINT_FORMAT = "fisherjscc-checkpoint"
CHECKPOINT_VERSION = 1


def _power_sqrt_floor(power: float) -> float:
    """Largest double s with s*s <= power, so saturation cannot break the budget."""
    s = math.sqrt(power)
    while s * s > power:
        s = math.nextafter(s, 0.0)
    return s


def _init_params(sizes, seed: int, prefix: str) -> ad.ParamSet:
    """Glorot-uniform weights, zero biases, drawn from a labeled substream."""
    params = ad.ParamSet()
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        rng = CounterRng(derive_seed(seed, prefix, "layer", i))
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = (rng.uniforms(fan_in * fan_out) * 2.0 - 1.0) * limit
        params.add(f"W{i}", ad.Tensor(w.reshape(fan_in, fan_out)))
        params.add(f"b{i}", ad.Tensor(np.zeros(fan_out)))
    return params


def _mlp_forward(params: ad.ParamSet, h: ad.Tensor, n_layers: int, hidden_act: str) -> ad.Tensor:
    for i in range(n_layers):
        h = ad.affine(h, params[f"W{i}"], params[f"b{i}"])
        if i < n_layers - 1:
            h = ad.activation(h, hidden_act)
    return h


def _as_batch(x) -> ad.Tensor:
    node = ad.as_tensor(x)
    if node.data.ndim == 1:
        node = ad.reshape(node, (1, node.data.shape[0]))
    if node.data.ndim != 2:
        raise ValueError(f"expected a vector or a batch of vectors, got shape {node.data.shape}")
    return node


class EncoderModel:
    """Deterministic encoder x -> z with max_i z_i^2 <= power by construction."""

    def __init__(self, input_dim: int, repr_dim: int, power: float,
                 hidden=(64, 64), seed: int = 0):
        if repr_dim < 1:
            raise ValueError("repr_dim must be >= 1")
        if power <= 0.0:
            raise ValueError("power budget must be positive")
        self.sizes = (int(input_dim), *(int(h) for h in hidden), int(repr_dim))
        self.power = float(power)
        self.seed = int(seed)
        self.params = _init_params(self.sizes, self.seed, "encoder")
        self._scale = _power_sqrt_floor(self.power)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def repr_dim(self) -> int:
        return self.sizes[-1]

    def forward_node(self, x) -> ad.Tensor:
        h = _as_batch(x)
        if h.data.shape[1] != self.input_dim:
            raise ValueError(
                f"encoder expects inputs of dimension {self.input_dim}, got {h.data.shape[1]}"
            )
        pre = _mlp_forward(self.params, h, len(self.sizes) - 1, "relu")
        return ad.scale(ad.tanh(pre), self._scale)

    def encode(self, x: np.ndarray) -> np.ndarray:
        z = self.forward_node(x).data
        peak = float(np.max(z * z)) if z.size else 0.0
        if peak > self.power:
            raise AssertionError(f"power constraint violated: max z_i^2 = {peak} > {self.power}")
        return z


class DecoderModel:
    """Categorical decoder z -> q(y|z) via an MLP head and row-wise softmax."""

    def __init__(self, repr_dim: int, num_classes: int, hidden=(64,), seed: int = 1):
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        self.sizes = (int(repr_dim), *(int(h) for h in hidden), int(num_classes))
        self.seed = int(seed)
        self.params = _init_params(self.sizes, self.seed, "decoder")

    @property
    def repr_dim(self) -> int:
        return self.sizes[0]

    @property
    def num_classes(self) -> int:
        return self.sizes[-1]

    def logits_node(self, z) -> ad.Tensor:
        h = _as_batch(z)
        if h.data.shape[1] != self.repr_dim:
            raise ValueError(
                f"decoder expects representations of dimension {self.repr_dim}, "
                f"got {h.data.shape[1]}"
            )
        return _mlp_forward(self.params, h, len(self.sizes) - 1, "relu")

    def log_posterior_all(self, z) -> ad.Tensor:
        """log q(y|z) for every class, shape [b, C]."""
        return ad.log_softmax(self.logits_node(z))

    def log_posterior_batch(self, z, labels) -> ad.Tensor:
        """log q(labels[i] | z[i]) per row, shape [b]."""
        return ad.gather_labels(self.log_posterior_all(z), labels)

    def log_posterior(self, z, label: int) -> ad.Tensor:
        """Scalar log q(label | z) for a single representation.

        Pass an `ad.Tensor` leaf as z to differentiate with respect to the
        input as well as the parameters.
        """
        label = int(label)
        if not 0 <= label < self.num_classes:
            raise ValueError(f"class index {label} out of range [0, {self.num_classes})")
        node = _as_batch(z)
        if node.data.shape[0] != 1:
            raise ValueError("log_posterior takes a single representation")
        return ad.sum_all(self.log_posterior_batch(node, np.array([label])))

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Posterior rows (each sums to 1); argmax ties resolve to the lowest index."""
        return np.exp(self.log_posterior_all(z).data)

    def predict(self, z: np.ndarray) -> np.ndarray:
        logits = self.logits_node(z).data
        return np.argmax(logits, axis=1)  # np.argmax picks the lowest index on ties


def save_checkpoint(path, encoder: EncoderModel, decoder: DecoderModel,
                    normalizer: dict | None = None, meta: dict | None = None) -> None:
    """Write both models to a versioned JSON document that round-trips bitwise.

    Floats are serialized with shortest-round-trip repr, so load after save
    reproduces every parameter bit for bit.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "power": encoder.power,
        "repr_dim": encoder.repr_dim,
        "num_classes": decoder.num_classes,
        "encoder": {
            "sizes": list(encoder.sizes),
            "seed": encoder.seed,
            "params": {n: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
                       for n, t in encoder.params.items()},
        },
        "decoder": {
            "sizes": list(decoder.sizes),
            "seed": decoder.seed,
            "params": {n: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
                       for n, t in decoder.params.items()},
        },
        "normalizer": normalizer,
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (encoder, decoder, normalizer_dict, meta).

    Raises ValueError for a document that is not a checkpoint of this version
    or that holds a non-finite parameter.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a checkpoint file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")

    enc_doc, dec_doc = doc["encoder"], doc["decoder"]
    enc_sizes = enc_doc["sizes"]
    encoder = EncoderModel(enc_sizes[0], enc_sizes[-1], doc["power"],
                           hidden=enc_sizes[1:-1], seed=enc_doc["seed"])
    dec_sizes = dec_doc["sizes"]
    decoder = DecoderModel(dec_sizes[0], dec_sizes[-1],
                           hidden=dec_sizes[1:-1], seed=dec_doc["seed"])
    for model, section in ((encoder, enc_doc), (decoder, dec_doc)):
        state = {
            name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in section["params"].items()
        }
        for name, value in state.items():
            if not np.isfinite(value).all():
                raise ValueError(f"non-finite values in parameter {name!r}")
        model.params.load_state(state)
    return encoder, decoder, doc.get("normalizer"), doc.get("meta", {})
