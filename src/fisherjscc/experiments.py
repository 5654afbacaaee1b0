"""Evaluation harness: PSNR sweeps, approximation validation, curvature maps.

All sweeps are deterministic given (models, data, seed, grid): every sweep
trial, and every block of the Taylor check's draws, draws from a generator
derived from the root seed by labeled counters, and every noise level of the
grid is evaluated on that same draw, scaled to it. A row therefore depends on
its own level, the channel family, the seed and the number of draws, and not
on the other levels of the grid, their order or the thread count. Each CSV's
columns are declared next to the code that makes its rows (NamedTuple fields
or a header tuple); figures are produced from the CSV by external tooling.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import channel_noise, psnr_to_sigma2
from .models import DecoderModel, EncoderModel
from .rng import CounterRng, derive_seed
from .robustness import _kl_rows, mean_fisher_trace

SWEEP_SCHEMA = "fisherjscc.sweep.v3"
TAYLOR_SCHEMA = "fisherjscc.taylor.v1"
POSTERIOR_SCHEMA = "fisherjscc.posterior.v1"
COMPARE_SCHEMA = "fisherjscc.compare.v1"
SWEEP_BLOCK_ROWS = 4096     # rows of noise per channel_noise call in an error_sweep block
TAYLOR_BLOCK_ROWS = 16384   # rows per block of shared Taylor draws: one noise request
TAYLOR_CHUNK_COLUMNS = 4096  # draws x points per decode of a Taylor block, in column layout


class SweepRow(NamedTuple):
    psnr_db: float
    family: str
    error_rate: float
    mean_expected_kl: float


def _map_cells(fn, count: int, threads: int | None) -> Iterator:
    """fn(0), ..., fn(count - 1) from a pool of `threads` workers, yielded in index order.

    `threads=None` takes one worker per CPU this process may run on. The pool
    never has more workers than cells, and it starts when the first result is
    asked for. At most two tasks per worker are submitted ahead of the result
    the caller is waiting on, so the pending tasks and unread results do not
    grow with `count`; once the caller stops reading, or a task raises, the
    tasks not yet started are cancelled. Pool threads do not inherit the
    caller's np.errstate, so each cell runs under the error policy of the
    thread that reads the first result.
    """
    if threads is None:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    workers = min(threads, max(count, 1))
    error_policy = np.geterr()

    def cell(index):
        with np.errstate(**error_policy):
            return fn(index)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        try:
            for index in range(count):
                pending.append(pool.submit(cell, index))
                if len(pending) > 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _noisy_log_posteriors(decoder: DecoderModel, unit: np.ndarray, z: np.ndarray,
                          sigma2: float) -> np.ndarray:
    """log q(y | z + sqrt(sigma2) * unit) of a [draws, n, k] block of unit noise, as a
    row-major [draws, n, C] array. The block is scaled and written feature-major into
    a new [k, draws, n] array, z [n, k] is added, and the [k, draws * n] result is
    decoded in column layout (`DecoderModel._log_posterior_columns`); the noisy copy
    is released on return. The log-posteriors are copied row-major out of the
    decoder's transposed [C, draws * n] result: on a 3,600 x 3 block the copy takes
    0.015 ms, and the caller's KL then takes 0.03 ms, against 0.11 ms over the
    strided view (2-vCPU x86-64, in-process)."""
    draws, n, k = unit.shape
    z_hat = np.multiply(unit.transpose(2, 0, 1), math.sqrt(sigma2),
                        out=np.empty((k, draws, n)))
    z_hat += z.T[:, None, :]    # in place; noise + z and z + noise are the same bits
    log_q = decoder._log_posterior_columns(z_hat.reshape(k, -1))
    return np.ascontiguousarray(log_q.reshape(draws, n, -1))


def error_sweep(models, dataset, psnr_grid, family: str, trials: int, seed: int,
                threads: int | None = None) -> list[list[SweepRow]]:
    """Misclassification rate over the test PSNR grid, T channel draws per sample, of
    each (encoder, decoder) pair of the sequence `models`: one list of rows per pair.

    The same draws also feed the per-sample KL between the noise-free and
    noisy posteriors, reported as mean_expected_kl. It and the predictions
    (argmax) are read from log-posteriors. Pairs that differ in power or repr_dim,
    a PSNR listed twice or one whose noise variance overflows are refused before
    anything is drawn.

    Every noisy PSNR of a trial, and every pair, reads one draw: common random
    numbers, as in the Taylor check. Trial t draws unit-variance noise (and,
    under Rayleigh, its h) once from its own generator, derived from the seed by
    ("sweep", family, 0, t) (the 0 keeps one-PSNR sweeps on the streams they
    have always used), and each PSNR scales it to its own variance. A pair's
    rows therefore depend only on (pair, seed, family, PSNR, trials), not on the
    other PSNRs of the grid, their order or the other pairs, and the rows'
    errors are correlated, which sharpens comparisons across PSNRs and pairs.
    A grid whose every PSNR is noise-free draws nothing.

    The trials run in blocks of about SWEEP_BLOCK_ROWS rows on the pool's
    `threads` workers (default: one per CPU, see `_map_cells`), under the
    caller's numpy error policy. A block draws its trials' noise in one call
    on a generator holding their streams, which gives every trial the values
    of its own generator. Per pair and PSNR it decodes the whole block in
    column layout, as the Taylor check decodes a chunk (`_noisy_log_posteriors`),
    with one argmax and then one KL over its [trials, rows, C] log-posteriors,
    which the KL overwrites (`_kl_rows`); the noisy copy goes before the
    KL and the posteriors before the next decode, and the noise when the block
    ends. The decoder's column slices (`models.SLICE_COLUMNS`) span trial
    boundaries, so a worker's activations are one slice's, not the block's, and
    at some shapes a trial's bits depend on its block's layout: they are not
    always those of the trial decoded alone. A block is fixed by `trials` and
    the row count, so a row never depends on the thread count, the grid or the
    other pairs. The blocks' wrong counts and per-trial KL sums are folded here
    in block order, so each PSNR adds its trials' KL in trial order and the
    result is identical for any thread count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    shared = {(encoder.power, encoder.repr_dim) for encoder, _ in models}
    if len(shared) != 1:
        raise ValueError(f"the model pairs of one sweep must share power and repr_dim, "
                         f"got {sorted(shared)}")
    grid = [float(p) for p in psnr_grid]
    if len(set(grid)) != len(grid):
        raise ValueError(f"duplicate sweep cell in PSNR grid {grid}")
    [(power, _)] = shared
    try:
        sigma2_grid = [psnr_to_sigma2(p, power) for p in grid]
    except ValueError as exc:
        raise ValueError(f"psnr_grid: {exc}") from None
    codes = [encoder.encode(dataset.features) for encoder, _ in models]
    clean = [decoder._log_posterior(z) for z, (_, decoder) in zip(codes, models)]
    labels = dataset.labels
    levels = [sigma2 for sigma2 in sigma2_grid if sigma2 != 0.0]
    block_trials = max(1, SWEEP_BLOCK_ROWS // len(labels))
    blocks = -(-trials // block_trials) if levels else 0

    def evaluate_block(index):
        rng = CounterRng([derive_seed(seed, "sweep", family, 0, t) for t in
                          range(index * block_trials, min((index + 1) * block_trials, trials))])
        unit = channel_noise(codes[0].shape, 1.0, family, rng)
        counts = []         # per pair, then per noisy PSNR
        for z, log_p_clean, (_, decoder) in zip(codes, clean, models):
            for sigma2 in levels:
                log_q = _noisy_log_posteriors(decoder, unit, z, sigma2)
                counts.append((int(np.sum(np.argmax(log_q, axis=-1) != labels)),
                               _kl_rows(log_p_clean, log_q).sum(axis=-1)))
                del log_q       # before the next decode, so its buffers can reuse these chunks
        return counts

    wrong, kl_sum = [0] * len(models) * len(levels), [0.0] * len(models) * len(levels)
    for block in _map_cells(evaluate_block, blocks, threads):
        for cell, (block_wrong, trial_kl) in enumerate(block):
            wrong[cell] += block_wrong
            for value in trial_kl:
                kl_sum[cell] += float(value)
    draws = trials * len(labels)
    sweeps, noisy = [], iter(zip(wrong, kl_sum))
    for log_p_clean in clean:
        clean_error = float(np.mean(np.argmax(log_p_clean, axis=1) != labels))
        rows = []
        for psnr_db, sigma2 in zip(grid, sigma2_grid):
            if sigma2 == 0.0:
                rows.append(SweepRow(psnr_db, family, clean_error, 0.0))
            else:
                level_wrong, level_kl = next(noisy)
                rows.append(SweepRow(psnr_db, family, level_wrong / draws, level_kl / draws))
        sweeps.append(rows)
    return sweeps


class TaylorRow(NamedTuple):
    sigma2: float
    mean_expected_kl: float
    kl_stderr: float
    mean_regularizer: float
    ratio: float
    abs_gap: float


def _point_moments(block: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Draw count, per-point mean and per-point M2 (sum of squared deviations from the
    mean) of one [take, n] block of draws, one row per draw. The block is consumed: it is
    overwritten with its squared deviations."""
    block_mean = block.mean(axis=0)
    block -= block_mean
    block *= block
    return len(block), block_mean, block.sum(axis=0)


def _merge_moments(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """The `_point_moments` of the draws of a and b together, by Chan, Golub and LeVeque's
    pairwise update; (0, 0.0, 0.0) stands for no draws. Every point has the same draws,
    so one count serves all of them."""
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    total = count_a + count_b
    delta = mean_b - mean_a
    return (total, mean_a + delta * (count_b / total),
            m2_a + m2_b + delta * delta * (count_a * count_b / total))


def _kl_moments(decoder: DecoderModel, z: np.ndarray, levels, samples: int, seed: int,
                threads: int | None) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per noise level of `levels`: the `_point_moments` of the KL over `samples` AWGN
    draws per point of z, every level evaluated on the same draws.

    The draws come in blocks of TAYLOR_BLOCK_ROWS // n draws of the n points (the
    last block takes the rest). Block b is one unit-variance `channel_noise`
    request from its own generator, derived from the seed by ("taylor", "block",
    b), kept in the [draws, n, k] layout it comes in. Each level runs over the
    block in chunks of whole draws, about TAYLOR_CHUNK_COLUMNS draws x points each
    (the draws are split evenly, so no chunk is one column unless the block is):
    it decodes the chunk's noise * sqrt(sigma2) + z in column layout
    (`_noisy_log_posteriors`, in slices of at most `models.SLICE_COLUMNS`
    columns) and writes the chunk's KL, from the log-posteriors, into the
    level's [draws, n] array, releasing the posteriors before the next chunk;
    the noise goes when the block ends. So no block-wide copy of the noise and no
    [draws * n, width] activation is ever alive, only a chunk's copy and a
    slice's activations. The pool's `threads` workers (default: one per CPU, see
    `_map_cells`) run the blocks under the caller's numpy error policy; each
    returns its per-level moments, which are merged here in block order as they
    arrive, so the result is identical for any thread count and only arrays of n
    values are kept, however many draws there are.
    """
    log_p = decoder._log_posterior(z)
    n, k = z.shape
    draws_per_block = max(1, TAYLOR_BLOCK_ROWS // max(n, 1))
    draws_per_chunk = max(1, TAYLOR_CHUNK_COLUMNS // max(n, 1))
    blocks = -(-samples // draws_per_block) if levels else 0

    def evaluate_block(index):
        take = min(draws_per_block, samples - index * draws_per_block)
        rng = CounterRng(derive_seed(seed, "taylor", "block", index))
        noise = channel_noise((take, n, k), 1.0, "awgn", rng)
        chunks = -(-take // draws_per_chunk)
        bounds = [chunk * take // chunks for chunk in range(chunks + 1)]
        moments = []
        for sigma2 in levels:
            kl = np.empty((take, n))
            for start, stop in zip(bounds, bounds[1:]):
                log_q = _noisy_log_posteriors(decoder, noise[start:stop], z, sigma2)
                kl[start:stop] = _kl_rows(log_p, log_q)
                del log_q   # before the next chunk, so its buffers can reuse these chunks
            moments.append(_point_moments(kl))
        return moments

    moments = [(0, 0.0, 0.0)] * len(levels)
    for block in _map_cells(evaluate_block, blocks, threads):
        moments = [_merge_moments(a, b) for a, b in zip(moments, block)]
    return moments


def taylor_validation(encoder: EncoderModel, decoder: DecoderModel, features,
                      sigma2_grid, samples: int, seed: int,
                      threads: int | None = None) -> list[TaylorRow]:
    """Check the closed-form penalty against the sampled expected KL under AWGN.

    Per noise level: dataset-mean MC expected KL over `samples` channel draws
    per point, with its standard error; dataset-mean penalty
    sigma2/2 * Tr(I(z)); their ratio and gap.
    There is no fading variant: under Rayleigh fading E[1/|h|^2] is infinite,
    so the unconditional KL has no finite penalty to be compared with.

    Every nonzero noise level is evaluated on the same draws (`_kl_moments`):
    common random numbers. A row's values therefore do not depend on which
    other levels are in the grid, or on their order, and each row's kl_stderr
    is its own; the rows' errors are correlated, which sharpens comparisons
    across levels. The draws run in blocks on the pool, and a block's KL is
    folded into per-point moments as it is made, so neither the memory nor
    the result depends on the thread count, and the memory does not grow
    with `samples`.
    """
    if samples < 20:
        raise ValueError("samples must be >= 20")
    sigma2_grid = list(sigma2_grid)
    if any(sigma2 < 0.0 for sigma2 in sigma2_grid):
        raise ValueError("sigma2 must be nonnegative")
    z = encoder.encode(np.asarray(features, dtype=np.float64))
    mean_trace = mean_fisher_trace(decoder, z)
    levels = list(dict.fromkeys(sigma2 for sigma2 in sigma2_grid if sigma2 != 0.0))
    moments = dict(zip(levels, _kl_moments(decoder, z, levels, samples, seed, threads)))

    rows = []
    for sigma2 in sigma2_grid:
        if sigma2 == 0.0:
            rows.append(TaylorRow(0.0, 0.0, 0.0, 0.0, 1.0, 0.0))
            continue
        count, mean, m2 = moments[sigma2]
        # Over all count x n draws: the mean of the per-point means, and an M2 that adds to
        # the per-point M2 count times the squared deviations of the per-point means from it.
        size = count * len(mean)
        kl_mean = float(mean.mean())
        spread = mean - kl_mean
        pooled_m2 = float(m2.sum()) + count * float((spread * spread).sum())
        kl_stderr = math.sqrt(pooled_m2 / (size - 1)) / math.sqrt(size)
        reg = 0.5 * sigma2 * mean_trace
        if reg == 0.0:
            ratio = 1.0 if kl_mean == 0.0 else math.inf
        else:
            ratio = kl_mean / reg
        rows.append(TaylorRow(float(sigma2), kl_mean, kl_stderr, reg, ratio,
                              abs(kl_mean - reg)))
    return rows


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
    offsets: np.ndarray          # displacement values along each axis; the grid is square
    values: np.ndarray           # [len(offsets), len(offsets)]


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
    return PosteriorGrid(axis1=v1, axis2=v2, offsets=offsets, values=values)


POSTERIOR_HEADER = ("a", "b", "neg_log_posterior")


def posterior_rows(grid: PosteriorGrid) -> Iterator[tuple[float, float, float]]:
    """The map in long format: one (a, b, value) row per cell, a-major, made as the
    writer reads it, so no row outlives its line of the file."""
    return ((a, b, grid.values[i, j])
            for i, a in enumerate(grid.offsets) for j, b in enumerate(grid.offsets))


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
    """Paired sweep of two model pairs on the same draws; per-PSNR error deltas."""
    sweep_a, sweep_b = error_sweep([(encoder_a, decoder_a), (encoder_b, decoder_b)], dataset,
                                   psnr_grid, family, trials, seed, threads=threads)
    rows = []
    for ra, rb in zip(sweep_a, sweep_b):
        delta = ra.error_rate - rb.error_rate
        sign = "a<b" if delta < 0 else ("a>b" if delta > 0 else "tie")
        rows.append(CompareRow(ra.psnr_db, family, ra.error_rate, rb.error_rate, delta, sign))
    return rows

