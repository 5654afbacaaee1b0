"""Stochastic channel simulation: AWGN and Rayleigh slow fading.

The channel adds white Gaussian noise to the transmitted representation:
z_hat = z + n with n ~ N(0, sigma2 * I). Under Rayleigh slow fading with
perfect channel estimation and equalization the received representation is
z_hat = z + n / |h| with a single complex coefficient h ~ CN(0, 1) per
transmission. Channel quality is tracked as PSNR = 10 log10(P / sigma2)
where P is the per-symbol peak power budget.

`channel_noise` is the one implementation of the effective noise n or n/|h|;
training, the Monte-Carlo KL and the error sweep all draw through it, each
asking for one plain shape: training's L noise copies of a batch are one
(L, b, k) block.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .rng import CounterRng

logger = logging.getLogger(__name__)

FAMILIES = ("awgn", "rayleigh")

# |h| is floored here when dividing, to keep simulated noise amplification
# finite; `equalization_gains` counts the draws that hit the floor to the
# module logger.
H_FLOOR = 1e-6


def psnr_to_sigma2(psnr_db: float, power: float) -> float:
    """Noise variance for a given PSNR in dB: power * 10^(-psnr/10), which must be finite."""
    if power <= 0.0:
        raise ValueError("power must be positive")
    try:
        sigma2 = power * 10.0 ** (-float(psnr_db) / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise ValueError(f"PSNR {psnr_db} dB gives a noise variance that is not a finite float")
    return sigma2


def gaussian_noise(shape, sigma2: float, rng: CounterRng) -> np.ndarray:
    """N(0, sigma2) noise of rng.stream_shape + shape: one block of `shape` per stream."""
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be nonnegative")
    full_shape = rng.stream_shape + shape
    if sigma2 == 0.0:
        return np.zeros(full_shape)
    noise = rng.normals(math.prod(shape)).reshape(full_shape)
    noise *= math.sqrt(sigma2)
    return noise


def draw_fading_coefficients(n: int, rng: CounterRng) -> np.ndarray:
    """n complex h ~ CN(0,1) per stream: independent N(0, 1/2) real and imaginary parts."""
    parts = rng.normals(2 * n) * math.sqrt(0.5)
    return parts[..., :n] + 1j * parts[..., n:]


def equalization_gains(h: np.ndarray) -> np.ndarray:
    """|h| with the simulation floor applied; floor hits are counted."""
    magnitude = np.abs(h)
    hits = int(np.sum(magnitude < H_FLOOR))
    if hits:
        logger.debug("fading floor engaged on %d of %d coefficients", hits, magnitude.size)
    return np.maximum(magnitude, H_FLOOR)


def channel_noise(shape, sigma2: float, family: str, rng: CounterRng) -> np.ndarray:
    """Effective additive channel noise of rng.stream_shape + shape.

    Per stream, all Gaussian noise is drawn first, over the whole shape.
    Under Rayleigh fading (and sigma2 > 0) one h per row of shape[:-1]
    follows on the same stream, and each row is divided by its floored |h|.
    A multi-stream generator gives each stream's block the values a
    single-stream generator of that seed would.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown channel family {family!r}; expected one of {FAMILIES}")
    noise = gaussian_noise(shape, sigma2, rng)
    if family == "rayleigh" and sigma2 > 0.0:
        rows = shape[:-1]
        h = draw_fading_coefficients(math.prod(rows), rng).reshape(rng.stream_shape + rows)
        noise /= equalization_gains(h)[..., None]
    return noise
