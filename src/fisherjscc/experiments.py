"""Evaluation harness: PSNR sweeps, approximation validation, curvature maps.

All sweeps are deterministic given (models, seed, grid): every cell draws
from a generator derived from the root seed by labeled counters, so adding
cells or reordering work cannot perturb other cells' streams. Each CSV's
columns are declared next to the code that makes its rows (NamedTuple fields
or a header tuple); figures are produced from the CSV by external tooling.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import channel_noise, psnr_to_sigma2
from .models import DecoderModel, EncoderModel
from .rng import CounterRng, derive_seed
from .robustness import _expected_kl_rows, _kl_rows, mean_fisher_trace

SWEEP_SCHEMA = "fisherjscc.sweep.v2"
TAYLOR_SCHEMA = "fisherjscc.taylor.v1"
REGTRACK_SCHEMA = "fisherjscc.regtrack.v1"
POSTERIOR_SCHEMA = "fisherjscc.posterior.v1"
COMPARE_SCHEMA = "fisherjscc.compare.v1"
SWEEP_BLOCK_ROWS = 4096     # noisy rows per channel_noise call in an error_sweep cell


class SweepRow(NamedTuple):
    regime: str                 # always "model"; the column stays for the v2 schema
    psnr_db: float
    family: str
    error_rate: float
    mean_expected_kl: float


def _sigma2_grid(psnr_grid, power: float) -> list[float]:
    try:
        return [psnr_to_sigma2(p, power) for p in psnr_grid]
    except ValueError as exc:
        raise ValueError(f"psnr_grid: {exc}") from None


def _map_cells(fn, count: int, threads: int | None) -> list:
    """[fn(0), ..., fn(count - 1)] from a pool of `threads` workers, in index order.

    `threads=None` takes one worker per CPU this process may run on. The pool
    never has more workers than cells. Pool threads do not inherit the
    caller's np.errstate, so each cell runs under the error policy of the
    thread that calls this.
    """
    if threads is None:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    error_policy = np.geterr()

    def cell(index):
        with np.errstate(**error_policy):
            return fn(index)

    with ThreadPoolExecutor(max_workers=min(threads, max(count, 1))) as pool:
        return list(pool.map(cell, range(count)))


def error_sweep(encoder: EncoderModel, decoder: DecoderModel, dataset,
                psnr_grid, family: str, trials: int, seed: int,
                threads: int | None = None) -> list[SweepRow]:
    """Misclassification rate over the test PSNR grid, T channel draws per sample.

    The same draws also feed the per-sample KL between the noise-free and
    noisy posteriors, reported as mean_expected_kl. A prediction is the
    argmax of `decode`. Each (PSNR, trial) pair draws from its own generator
    derived from the seed by labeled counters, and the pool's `threads`
    workers (default: one per CPU, see `_map_cells`) return the rows in grid
    order, so the result is identical for any thread count; they run under
    the caller's numpy error policy. A PSNR listed twice or whose noise
    variance overflows is refused before any cell.

    A cell draws the noise of about SWEEP_BLOCK_ROWS rows, a block of trials,
    in one call on a generator holding those trials' streams, which gives
    every trial the values of its own generator. The block is decoded as one
    [trials, rows, k] stack, with one KL and one argmax, and each trial's KL
    sum joins the cell's in trial order. That keeps each trial's bits: the
    stack's weight products are one BLAS product per trial (a [trials * rows,
    k] batch would take another BLAS path and other bits), and the rest works
    entry by entry or row by row. A block's noise and posteriors are released
    before the next block is drawn, so each worker holds one block and the
    allocator can place the next block in the chunks this one freed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = [float(p) for p in psnr_grid]
    if len(set(grid)) != len(grid):
        raise ValueError(f"duplicate sweep cell in PSNR grid {grid}")
    sigma2_grid = _sigma2_grid(grid, encoder.power)
    z = encoder.encode(dataset.features)
    p_clean = decoder.decode(z)
    clean_predictions = np.argmax(p_clean, axis=1)
    labels = dataset.labels
    block_trials = max(1, SWEEP_BLOCK_ROWS // len(labels))

    def evaluate_cell(psnr_index):
        psnr_db, sigma2 = grid[psnr_index], sigma2_grid[psnr_index]
        if sigma2 == 0.0:
            return SweepRow("model", psnr_db, family,
                            float(np.mean(clean_predictions != labels)), 0.0)
        wrong = 0
        kl_sum = 0.0
        for start in range(0, trials, block_trials):
            rng = CounterRng([derive_seed(seed, "sweep", family, psnr_index, t)
                              for t in range(start, min(start + block_trials, trials))])
            z_hat = channel_noise(z.shape, sigma2, family, rng)
            z_hat += z      # in place; noise + z and z + noise are the same bits
            q = decoder.decode(z_hat)
            wrong += int(np.sum(np.argmax(q, axis=-1) != labels))
            for trial_kl in _kl_rows(p_clean, q).sum(axis=-1):
                kl_sum += float(trial_kl)
            del z_hat, q    # before the next draw, so its buffers can reuse these chunks
        return SweepRow("model", psnr_db, family, wrong / (trials * len(labels)),
                        kl_sum / (trials * len(labels)))

    return _map_cells(evaluate_cell, len(grid), threads)


class TaylorRow(NamedTuple):
    sigma2: float
    mean_expected_kl: float
    kl_stderr: float
    mean_regularizer: float
    ratio: float
    abs_gap: float


def _point_moments(blocks) -> tuple[int, np.ndarray, np.ndarray]:
    """Draw count, per-point mean and per-point M2 (sum of squared deviations from the
    mean) of [take, n] blocks of draws, one row per draw.

    Each block's own mean and M2 are merged into the running ones, in block
    order, by Chan, Golub and LeVeque's pairwise update, so only arrays of n
    values are kept, however many draws there are. Every point has the same
    draws, so one count serves all of them. The blocks are consumed: each is
    overwritten with its squared deviations and released before the next is
    asked for, so a generator's next block can reuse its memory.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for block in blocks:
        take = len(block)
        block_mean = block.mean(axis=0)
        block -= block_mean
        block *= block
        total = count + take
        delta = block_mean - mean
        mean = mean + delta * (take / total)
        m2 = m2 + block.sum(axis=0) + delta * delta * (count * take / total)
        count = total
        del block       # before the next draw, so its buffers can reuse these chunks
    return count, mean, m2


def taylor_validation(encoder: EncoderModel, decoder: DecoderModel, features,
                      sigma2_grid, samples: int, seed: int,
                      threads: int | None = None) -> list[TaylorRow]:
    """Check the closed-form penalty against the sampled expected KL under AWGN.

    Per noise level: dataset-mean MC expected KL over `samples` channel draws
    per point, with its standard error; dataset-mean penalty
    sigma2/2 * Tr(I(z)); their ratio and gap.
    There is no fading variant: under Rayleigh fading E[1/|h|^2] is infinite,
    so the unconditional KL has no finite penalty to be compared with.

    Each noise level is a cell with its own generator derived from the seed,
    and the pool's `threads` workers (default: one per CPU, see `_map_cells`)
    return the rows in grid order, so the result is identical for any thread
    count; they run under the caller's numpy error policy. Within a cell the
    draws, decodes and KL run serially; `_expected_kl_rows` decodes in slices
    of at least KL_SLICE_ROWS = 16,384 rows, since smaller slices take another
    OpenBLAS path and change bits. A cell keeps no table of draws: it folds
    each block of KL rows into per-point moments (`_point_moments`) as the
    block arrives, so its memory does not grow with `samples`.
    """
    if samples < 20:
        raise ValueError("samples must be >= 20")
    sigma2_grid = list(sigma2_grid)
    z = encoder.encode(np.asarray(features, dtype=np.float64))
    mean_trace = mean_fisher_trace(decoder, z)

    def evaluate_cell(grid_index):
        sigma2 = sigma2_grid[grid_index]
        if sigma2 == 0.0:
            return TaylorRow(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        reg = 0.5 * sigma2 * mean_trace
        rng = CounterRng(derive_seed(seed, "taylor", grid_index))
        count, mean, m2 = _point_moments(_expected_kl_rows(decoder, z, sigma2, samples, rng))
        # Over all count x n draws: the mean of the per-point means, and an M2 that adds to
        # the per-point M2 count times the squared deviations of the per-point means from it.
        size = count * len(mean)
        kl_mean = float(mean.mean())
        spread = mean - kl_mean
        pooled_m2 = float(m2.sum()) + count * float((spread * spread).sum())
        kl_stderr = math.sqrt(pooled_m2 / (size - 1)) / math.sqrt(size)
        if reg == 0.0:
            ratio = 1.0 if kl_mean == 0.0 else math.inf
        else:
            ratio = kl_mean / reg
        return TaylorRow(float(sigma2), kl_mean, kl_stderr, reg, ratio, abs(kl_mean - reg))

    return _map_cells(evaluate_cell, len(sigma2_grid), threads)


REGTRACK_HEADER = ("model", "psnr_db", "sigma2", "mean_trace", "mean_regularizer")


def regularizer_track(encoder: EncoderModel, decoder: DecoderModel, psnr_grid,
                      dataset) -> list[tuple]:
    """Mean penalty of one model, labelled "model", per test noise level.

    Rows follow REGTRACK_HEADER; the penalty is exactly linear in sigma2.
    """
    sigma2_grid = _sigma2_grid(psnr_grid, encoder.power)
    mean_trace = mean_fisher_trace(decoder, encoder.encode(dataset.features))
    return [("model", float(psnr_db), sigma2, mean_trace, 0.5 * sigma2 * mean_trace)
            for psnr_db, sigma2 in zip(psnr_grid, sigma2_grid)]


def top_two_components(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 orthonormal eigenvectors of a symmetric PSD matrix.

    Each vector's entry of largest magnitude is made positive, so the axes do
    not depend on the eigensolver's sign choice.
    """
    values, vectors = np.linalg.eigh(matrix)
    value1 = values[-1]
    value2 = values[-2] if len(values) > 1 else 0.0
    if value1 <= 1e-12:
        raise ValueError("covariance is numerically rank-0; no principal axes exist")
    if value2 <= 1e-12 * value1:
        raise ValueError(
            f"covariance is numerically rank-1 (second eigenvalue {value2:.3e} "
            f"vs first {value1:.3e}); a 2-D map needs rank >= 2")
    axes = vectors[:, [-1, -2]].T
    pivots = axes[[0, 1], np.argmax(np.abs(axes), axis=1)]
    v1, v2 = axes * np.sign(pivots)[:, None]
    return v1, v2


@dataclass
class PosteriorGrid:
    """Negative log posterior of the true label over a 2-D slice of z-space."""

    axis1: np.ndarray            # unit vector in R^k
    axis2: np.ndarray
    offsets1: np.ndarray         # displacement values along axis1
    offsets2: np.ndarray
    values: np.ndarray           # [len(offsets1), len(offsets2)]


def posterior_grid(encoder: EncoderModel, decoder: DecoderModel, dataset,
                   sample_index: int, resolution: int, extent_std: float,
                   sigma2: float) -> PosteriorGrid:
    """Map -log q(y_true | z + a*v1 + b*v2) around one sample's encoding.

    The axes v1, v2 are the top-2 principal directions of the encoded
    dataset; grid extents are extent_std noise standard deviations, so maps
    at different noise levels are comparable.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if not extent_std > 0.0:
        raise ValueError(f"extent_std must be > 0, got {extent_std}")
    if not 0 <= sample_index < len(dataset.labels):
        raise ValueError(f"sample_index {sample_index} is outside the "
                         f"{len(dataset.labels)} samples of the dataset")
    z_all = encoder.encode(dataset.features)
    centered = z_all - z_all.mean(axis=0, keepdims=True)
    covariance = centered.T @ centered / max(len(z_all) - 1, 1)
    v1, v2 = top_two_components(covariance)

    z0 = z_all[sample_index]
    y_true = int(dataset.labels[sample_index])
    half_width = extent_std * math.sqrt(sigma2)
    offsets = np.linspace(-half_width, half_width, resolution)
    grid_a, grid_b = np.meshgrid(offsets, offsets, indexing="ij")
    points = (z0[None, :]
              + grid_a.reshape(-1, 1) * v1[None, :]
              + grid_b.reshape(-1, 1) * v2[None, :])
    logq = decoder._log_posterior(points)[:, y_true]
    values = -logq.reshape(resolution, resolution)
    return PosteriorGrid(axis1=v1, axis2=v2, offsets1=offsets.copy(),
                         offsets2=offsets.copy(), values=values)


POSTERIOR_HEADER = ("a", "b", "neg_log_posterior")


def posterior_rows(grid: PosteriorGrid) -> Iterator[tuple[float, float, float]]:
    """The map in long format: one (a, b, value) row per cell, a-major, made as the
    writer reads it, so no row outlives its line of the file."""
    return ((a, b, grid.values[i, j])
            for i, a in enumerate(grid.offsets1) for j, b in enumerate(grid.offsets2))


class CompareRow(NamedTuple):
    psnr_db: float
    family: str
    error_a: float
    error_b: float
    delta: float                # error_a - error_b
    sign: str                   # "a<b", "a>b" or "tie"


def paired_compare(encoder_a, decoder_a, encoder_b, decoder_b, dataset,
                   psnr_grid, family: str, trials: int, seed: int,
                   threads: int | None = None) -> list[CompareRow]:
    """Shared-seed paired sweep of two model pairs; per-PSNR error deltas."""
    sweep_a = error_sweep(encoder_a, decoder_a, dataset, psnr_grid, family,
                          trials, seed, threads=threads)
    sweep_b = error_sweep(encoder_b, decoder_b, dataset, psnr_grid, family,
                          trials, seed, threads=threads)
    rows = []
    for ra, rb in zip(sweep_a, sweep_b):
        delta = ra.error_rate - rb.error_rate
        sign = "a<b" if delta < 0 else ("a>b" if delta > 0 else "tie")
        rows.append(CompareRow(ra.psnr_db, family, ra.error_rate, rb.error_rate, delta, sign))
    return rows

