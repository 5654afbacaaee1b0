"""Evaluation harness: PSNR sweeps, approximation validation, curvature maps.

All sweeps are deterministic given (models, seed, grid): every cell draws
from a generator derived from the root seed by labeled counters, so adding
cells or reordering work cannot perturb other cells' streams. Results are
emitted as CSV with a fixed column order and a schema-version header line;
figures are produced from the CSV by external tooling.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import channel_noise, psnr_to_sigma2
from .models import DecoderModel, EncoderModel
from .rng import CounterRng, derive_seed
from .robustness import _expected_kl_rows, _kl_rows, mean_fisher_trace

SWEEP_SCHEMA = "fisherjscc.sweep.v1"
TAYLOR_SCHEMA = "fisherjscc.taylor.v1"
REGTRACK_SCHEMA = "fisherjscc.regtrack.v1"
POSTERIOR_SCHEMA = "fisherjscc.posterior.v1"
COMPARE_SCHEMA = "fisherjscc.compare.v1"


@dataclass(frozen=True)
class SweepRow:
    regime: str
    psnr_db: float
    family: str
    error_rate: float
    mean_regularizer: float
    mean_expected_kl: float


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    def append(self, row: SweepRow) -> None:
        key = (row.regime, row.psnr_db, row.family)
        if any((r.regime, r.psnr_db, r.family) == key for r in self.rows):
            raise ValueError(f"duplicate sweep cell {key}")
        if not 0.0 <= row.error_rate <= 1.0:
            raise ValueError("error rate must lie in [0, 1]")
        self.rows.append(row)


def _csv_open(path, schema: str):
    fh = open(path, "w", encoding="utf-8", newline="")
    fh.write(f"# schema={schema}\n")
    return fh, csv.writer(fh, lineterminator="\n")


def write_sweep_csv(result: SweepResult, path) -> None:
    fh, writer = _csv_open(path, SWEEP_SCHEMA)
    with fh:
        writer.writerow(["regime", "psnr_db", "family", "error_rate",
                         "mean_regularizer", "mean_expected_kl"])
        for r in result.rows:
            writer.writerow([r.regime, repr(r.psnr_db), r.family, repr(r.error_rate),
                             repr(r.mean_regularizer), repr(r.mean_expected_kl)])


def error_sweep(encoder: EncoderModel, decoder: DecoderModel, dataset,
                psnr_grid, family: str, trials: int, seed: int,
                regime: str = "model", threads: int = 1) -> SweepResult:
    """Misclassification rate over the test PSNR grid, T channel draws per sample.

    The same draws also feed the per-sample KL between the noise-free and
    noisy posteriors, reported as mean_expected_kl. Each (PSNR, trial) cell
    draws from its own generator derived from the seed by labeled counters
    and cells are merged in grid order, so the result is identical for any
    thread count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = encoder.encode(dataset.features)
    p_clean = decoder.decode(z)
    clean_predictions = np.argmax(p_clean, axis=1)
    labels = dataset.labels
    mean_trace = mean_fisher_trace(decoder, z)

    def evaluate_cell(cell):
        psnr_index, psnr_db = cell
        sigma2 = psnr_to_sigma2(psnr_db, encoder.power)
        if sigma2 == 0.0:
            errors = float(np.mean(clean_predictions != labels))
            kl_mean = 0.0
        else:
            wrong = 0
            kl_sum = 0.0
            for t in range(trials):
                rng = CounterRng(derive_seed(seed, "sweep", family, psnr_index, t))
                q = decoder.decode(z + channel_noise(z.shape, sigma2, family, rng))
                wrong += int(np.sum(np.argmax(q, axis=1) != labels))
                kl_sum += float(_kl_rows(p_clean, q).sum())
            errors = wrong / (trials * len(labels))
            kl_mean = kl_sum / (trials * len(labels))
        return SweepRow(regime=regime, psnr_db=float(psnr_db), family=family,
                        error_rate=errors,
                        mean_regularizer=0.5 * sigma2 * mean_trace,
                        mean_expected_kl=kl_mean)

    cells = list(enumerate(psnr_grid))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(evaluate_cell, cells))
    else:
        rows = [evaluate_cell(cell) for cell in cells]
    result = SweepResult()
    for row in rows:
        result.append(row)
    return result


@dataclass(frozen=True)
class TaylorRow:
    sigma2: float
    mean_expected_kl: float
    kl_stderr: float
    mean_regularizer: float
    ratio: float
    abs_gap: float


def taylor_validation(encoder: EncoderModel, decoder: DecoderModel, features,
                      sigma2_grid, samples: int, seed: int) -> list[TaylorRow]:
    """Check the closed-form penalty against the sampled expected KL under AWGN.

    Per noise level: dataset-mean MC expected KL over `samples` channel draws
    per point, dataset-mean penalty sigma2/2 * Tr(I(z)), their ratio and gap.
    There is no fading variant: under Rayleigh fading E[1/|h|^2] is infinite,
    so the unconditional KL has no finite penalty to be compared with.
    """
    if samples < 20:
        raise ValueError("samples must be >= 20")
    z = encoder.encode(np.asarray(features, dtype=np.float64))
    mean_trace = mean_fisher_trace(decoder, z)
    rows = []
    for grid_index, sigma2 in enumerate(sigma2_grid):
        reg = 0.5 * sigma2 * mean_trace
        if sigma2 == 0.0:
            rows.append(TaylorRow(0.0, 0.0, 0.0, 0.0, 1.0, 0.0))
            continue
        rng = CounterRng(derive_seed(seed, "taylor", grid_index))
        draws = _expected_kl_rows(decoder, z, sigma2, samples, rng)
        kl_mean = float(draws.mean())
        kl_stderr = float(draws.std(ddof=1) / math.sqrt(draws.size))
        if reg == 0.0:
            ratio = 1.0 if kl_mean == 0.0 else math.inf
        else:
            ratio = kl_mean / reg
        rows.append(TaylorRow(float(sigma2), kl_mean, kl_stderr, reg, ratio,
                              abs(kl_mean - reg)))
    return rows


def write_taylor_csv(rows, path) -> None:
    fh, writer = _csv_open(path, TAYLOR_SCHEMA)
    with fh:
        writer.writerow(["sigma2", "mean_expected_kl", "kl_stderr",
                         "mean_regularizer", "ratio", "abs_gap"])
        for r in rows:
            writer.writerow([repr(r.sigma2), repr(r.mean_expected_kl), repr(r.kl_stderr),
                             repr(r.mean_regularizer), repr(r.ratio), repr(r.abs_gap)])


def regularizer_track(tagged_models, psnr_grid, dataset) -> list[tuple]:
    """Mean penalty per model per test noise level.

    tagged_models: iterable of (label, encoder, decoder). Returns rows
    (label, psnr_db, sigma2, mean_trace, mean_regularizer); the penalty is
    exactly linear in sigma2 for a fixed model.
    """
    rows = []
    for label, encoder, decoder in tagged_models:
        z = encoder.encode(dataset.features)
        mean_trace = mean_fisher_trace(decoder, z)
        for psnr_db in psnr_grid:
            sigma2 = psnr_to_sigma2(psnr_db, encoder.power)
            rows.append((label, float(psnr_db), sigma2, mean_trace,
                         0.5 * sigma2 * mean_trace))
    return rows


def write_regtrack_csv(rows, path) -> None:
    fh, writer = _csv_open(path, REGTRACK_SCHEMA)
    with fh:
        writer.writerow(["model", "psnr_db", "sigma2", "mean_trace", "mean_regularizer"])
        for label, psnr_db, sigma2, trace, reg in rows:
            writer.writerow([label, repr(psnr_db), repr(sigma2), repr(trace), repr(reg)])


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
    center_value: float


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
    logq = decoder.log_posterior_all(points).data[:, y_true]
    values = -logq.reshape(resolution, resolution)
    center = -float(decoder.log_posterior(z0, y_true).item())
    return PosteriorGrid(axis1=v1, axis2=v2, offsets1=offsets.copy(),
                         offsets2=offsets.copy(), values=values, center_value=center)


def write_posterior_csv(grid: PosteriorGrid, path) -> None:
    """Long-format (a, b, value) rows."""
    fh, writer = _csv_open(path, POSTERIOR_SCHEMA)
    with fh:
        writer.writerow(["a", "b", "neg_log_posterior"])
        for i, a in enumerate(grid.offsets1):
            for j, b in enumerate(grid.offsets2):
                writer.writerow([repr(float(a)), repr(float(b)), repr(float(grid.values[i, j]))])


def paired_compare(encoder_a, decoder_a, encoder_b, decoder_b, dataset,
                   psnr_grid, family: str, trials: int, seed: int,
                   threads: int = 1) -> list[dict]:
    """Shared-seed paired sweep of two model pairs; per-PSNR error deltas."""
    sweep_a = error_sweep(encoder_a, decoder_a, dataset, psnr_grid, family,
                          trials, seed, regime="a", threads=threads)
    sweep_b = error_sweep(encoder_b, decoder_b, dataset, psnr_grid, family,
                          trials, seed, regime="b", threads=threads)
    rows = []
    for ra, rb in zip(sweep_a.rows, sweep_b.rows):
        delta = ra.error_rate - rb.error_rate
        rows.append({
            "psnr_db": ra.psnr_db, "family": family,
            "error_a": ra.error_rate, "error_b": rb.error_rate,
            "delta": delta,
            "sign": "a<b" if delta < 0 else ("a>b" if delta > 0 else "tie"),
        })
    return rows


def write_compare_csv(rows, path) -> None:
    fh, writer = _csv_open(path, COMPARE_SCHEMA)
    with fh:
        writer.writerow(["psnr_db", "family", "error_a", "error_b", "delta", "sign"])
        for r in rows:
            writer.writerow([repr(r["psnr_db"]), r["family"], repr(r["error_a"]),
                             repr(r["error_b"]), repr(r["delta"]), r["sign"]])


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
