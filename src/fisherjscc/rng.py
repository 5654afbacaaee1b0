"""Deterministic random streams for every stochastic piece of the package.

A counter-based scheme is used throughout: the k-th output word depends only
on (seed, k), so a stream can be reproduced bit for bit from its seed alone
and independent substreams are cheap to derive. Words and uniforms do not
depend on call granularity; Box-Muller normals do, since each call takes a
block of u1 words and then a block of u2 words: normals(4) differs from
normals(2) followed by normals(2).

One generator can also carry many streams at once, one per seed of a
sequence. Every draw then has a leading stream axis whose row i holds the
values `CounterRng(seed_i)` would give for the same calls: the splitmix64
words and the Box-Muller transforms are elementwise, so drawing a block of
streams in one call changes no value.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO_PI = 2.0 * math.pi


def derive_seed(root: int, *labels: int | str) -> int:
    """Fan a root seed out into the seed of an independent labeled substream.

    Labels are hashed with a type tag and a length prefix, so ("noise", 12)
    and ("noise1", 2) cannot collide. Adding a new label anywhere in a
    program never perturbs the streams derived under other labels.
    """
    h = hashlib.sha256()
    h.update(int(root & _MASK64).to_bytes(8, "little"))
    for label in labels:
        if isinstance(label, (int, np.integer)):
            h.update(b"i")
            h.update(int(label).to_bytes(9, "little", signed=True))
        elif isinstance(label, str):
            raw = label.encode("utf-8")
            h.update(b"s")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
        else:
            raise TypeError(f"seed labels must be int or str, got {type(label).__name__}")
    return int.from_bytes(h.digest()[:8], "little")


class CounterRng:
    """Counter-based generator: splitmix64 word stream, Box-Muller normals.

    Word k of stream `seed` is the splitmix64 finalizer applied to
    seed + (k+1) * golden_gamma, computed with wrapping 64-bit arithmetic.
    The whole word block for a request is produced vectorized in numpy.

    Given a sequence of S seeds instead of one, the generator advances S
    streams in lockstep: `stream_shape` is (S,) rather than (), and every
    array it returns gains that leading axis.
    """

    def __init__(self, seed: int | Sequence[int]):
        if isinstance(seed, (int, np.integer)):
            self._key = np.uint64(seed & _MASK64)
            self.stream_shape: tuple[int, ...] = ()
        else:
            self._key = np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)[:, None]
            self.stream_shape = (len(self._key),)
        self._counter = 0

    def _words(self, n: int) -> np.ndarray:
        start = self._counter
        self._counter += n
        with np.errstate(over="ignore"):
            z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
            z *= _GOLDEN
            z = self._key + z
            z ^= z >> np.uint64(30)
            z *= _MIX1
            z ^= z >> np.uint64(27)
            z *= _MIX2
            z ^= z >> np.uint64(31)
            return z

    def _single_stream(self, what: str) -> None:
        if self.stream_shape:
            raise ValueError(f"{what} needs a single-stream generator, "
                             f"this one has {self.stream_shape[0]} streams")

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform on [0, 1) per stream."""
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        self._single_stream("uniform")
        return low + (high - low) * float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n float64 standard normal values per stream via Box-Muller pairs.

        Consumes 2 * ceil(n / 2) words from one request: the u1 block, then the
        u2 block. When n is odd the second half of the final pair is discarded.
        The block is transformed in place, so a large draw holds one float
        buffer and one half-size temporary.
        """
        pairs = (n + 1) // 2
        words = self._words(2 * pairs)
        words >>= np.uint64(11)
        out = words.astype(np.float64)
        del words
        # u1 on (0, 1] so the log is always finite; u2 on [0, 1).
        radius = out[..., :pairs]
        angle = out[..., pairs:]
        radius += 1.0
        radius *= 2.0**-53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0**-53
        angle *= _TWO_PI
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        angle *= radius
        radius *= cos
        del cos         # before the returned view is made: that order keeps peak RSS lower
        return out[..., :n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) via argsort of a uniform block."""
        self._single_stream("permutation")
        return np.argsort(self.uniforms(n), kind="stable")

