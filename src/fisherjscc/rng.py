"""Deterministic random streams for every stochastic piece of the package.

A counter-based scheme is used throughout: the k-th output word depends only
on (seed, k), so a stream can be reproduced bit for bit from its seed alone
and independent substreams are cheap to derive. Words and uniforms do not
depend on call granularity; Box-Muller normals do, since each call takes a
block of u1 words and then a block of u2 words: normals(4) differs from
normals(2) followed by normals(2).
"""

from __future__ import annotations

import hashlib
import math

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
    """

    def __init__(self, seed: int):
        self._key = np.uint64(seed & _MASK64)
        self._counter = 0

    def _words(self, n: int) -> np.ndarray:
        start = self._counter
        self._counter += n
        with np.errstate(over="ignore"):
            idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
            z = self._key + idx * _GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            return z ^ (z >> np.uint64(31))

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform on [0, 1)."""
        return (self._words(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n float64 standard normal values via Box-Muller pairs.

        Consumes 2 * ceil(n / 2) words: the u1 block, then the u2 block.
        When n is odd the second half of the final pair is discarded.
        """
        pairs = (n + 1) // 2
        # u1 on (0, 1] so the log is always finite; u2 on [0, 1).
        u1 = ((self._words(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (self._words(pairs) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = _TWO_PI * u2
        out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) via argsort of a uniform block."""
        return np.argsort(self.uniforms(n), kind="stable")
