"""Evaluation harness: sweeps, approximation tables, maps, eigensolver."""

import numpy as np
import pytest

from fisherjscc.channel import psnr_to_sigma2
from fisherjscc.data import make_rings
from fisherjscc.experiments import (SweepResult, SweepRow,
                                    error_sweep, paired_compare, posterior_grid,
                                    regularizer_track, spearman,
                                    taylor_validation, top_two_components,
                                    write_posterior_csv, write_sweep_csv)
from fisherjscc.models import DecoderModel, EncoderModel
from fisherjscc.rng import CounterRng, derive_seed
from fisherjscc.train import FixedPsnr, TrainConfig, train


@pytest.fixture(scope="module")
def trained_pair():
    ds = make_rings(3, 100, noise=0.15, seed=derive_seed(900, "data"))
    encoder = EncoderModel(2, 6, power=1.0, hidden=(32,), seed=derive_seed(900, "enc"))
    decoder = DecoderModel(6, 3, hidden=(32,), seed=derive_seed(900, "dec"))
    train(TrainConfig(lam=0.0, epochs=30, batch_size=32, seed=900,
                      psnr=FixedPsnr(15.0)), ds, encoder, decoder)
    test_set = make_rings(3, 100, noise=0.15, seed=derive_seed(900, "data"), split="test")
    return encoder, decoder, ds, test_set


def uniform_pair(seed: int = 0):
    """Encoder plus a decoder pinned at the uniform posterior."""
    encoder = EncoderModel(2, 4, power=1.0, hidden=(8,), seed=seed)
    decoder = DecoderModel(4, 4, hidden=(), seed=seed)
    decoder.params["W0"].data[:] = 0.0
    decoder.params["b0"].data[:] = 0.0
    return encoder, decoder


class TestErrorSweep:
    def test_noiseless_equals_deterministic_error(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        result = error_sweep(encoder, decoder, test_set, [float("inf")], "awgn",
                             trials=7, seed=1)
        z = encoder.encode(test_set.features)
        exact = float(np.mean(np.argmax(decoder.decode(z), axis=1) != test_set.labels))
        assert result.rows[0].error_rate == exact
        assert result.rows[0].mean_expected_kl == 0.0

    def test_error_decreases_with_psnr_in_trend(self):
        """Spearman correlation of error vs PSNR is negative, majority of 3 seeds."""
        wins = 0
        grid = [0.0, 5.0, 10.0, 15.0, 20.0]
        for seed in (71, 72, 73):
            ds = make_rings(3, 80, noise=0.15, seed=derive_seed(seed, "data"))
            encoder = EncoderModel(2, 6, power=1.0, hidden=(32,),
                                   seed=derive_seed(seed, "enc"))
            decoder = DecoderModel(6, 3, hidden=(32,), seed=derive_seed(seed, "dec"))
            train(TrainConfig(lam=0.0, epochs=25, batch_size=32, seed=seed,
                              psnr=FixedPsnr(15.0)), ds, encoder, decoder)
            result = error_sweep(encoder, decoder, ds, grid, "awgn", trials=10, seed=seed)
            errors = [row.error_rate for row in result.rows]
            if spearman(grid, errors) < 0.0:
                wins += 1
        assert wins >= 2

    def test_uniform_decoder_sits_at_chance(self):
        """Uniform posterior predicts class 0 always: error = 1 - 1/C exactly
        on balanced data, and about that under any noise level."""
        encoder, decoder = uniform_pair()
        ds = make_rings(4, 150, noise=0.1, seed=41)  # 600 samples, T=20 -> 12000 draws
        result = error_sweep(encoder, decoder, ds, [10.0], "awgn", trials=20, seed=2)
        assert abs(result.rows[0].error_rate - 0.75) <= 0.02

    def test_deterministic_given_seed(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        a = error_sweep(encoder, decoder, test_set, [5.0, 15.0], "awgn", trials=5, seed=9)
        b = error_sweep(encoder, decoder, test_set, [5.0, 15.0], "awgn", trials=5, seed=9)
        assert a.rows == b.rows

    def test_duplicate_cells_rejected(self):
        result = SweepResult()
        row = SweepRow("m", 10.0, "awgn", 0.1, 0.0, 0.0)
        result.append(row)
        with pytest.raises(ValueError):
            result.append(row)

    def test_rayleigh_family_runs(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        result = error_sweep(encoder, decoder, test_set, [10.0], "rayleigh",
                             trials=5, seed=3)
        assert 0.0 <= result.rows[0].error_rate <= 1.0

    def test_thread_count_does_not_change_results(self, trained_pair):
        """Per-cell generators plus ordered merge: threads=2 equals threads=1."""
        encoder, decoder, _, test_set = trained_pair
        grid = [5.0, 10.0, 15.0, 20.0]
        serial = error_sweep(encoder, decoder, test_set, grid, "awgn",
                             trials=4, seed=17, threads=1)
        threaded = error_sweep(encoder, decoder, test_set, grid, "awgn",
                               trials=4, seed=17, threads=2)
        assert serial.rows == threaded.rows


class TestTaylorValidation:
    def test_zero_sigma_row(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        rows = taylor_validation(encoder, decoder, ds.features[:16], [0.0],
                                 samples=50, seed=4)
        assert (rows[0].mean_expected_kl, rows[0].mean_regularizer) == (0.0, 0.0)
        assert rows[0].ratio == 1.0

    def test_smallest_sigma_ratio_nearest_one(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        grid = [psnr_to_sigma2(p, 1.0) for p in (30.0, 20.0, 10.0)]
        rows = taylor_validation(encoder, decoder, ds.features[:48], grid,
                                 samples=2000, seed=5)
        distances = [abs(r.ratio - 1.0) for r in rows]
        assert np.argmin(distances) == 0  # grid is ordered smallest sigma2 first

    def test_small_and_large_sample_counts_agree(self, trained_pair):
        """S=20 mean within 5 standard errors of the S-large mean."""
        encoder, decoder, ds, _ = trained_pair
        grid = [psnr_to_sigma2(15.0, 1.0)]
        small = taylor_validation(encoder, decoder, ds.features[:32], grid,
                                  samples=20, seed=6)[0]
        large = taylor_validation(encoder, decoder, ds.features[:32], grid,
                                  samples=10_000, seed=7)[0]
        assert abs(small.mean_expected_kl - large.mean_expected_kl) \
            <= 5.0 * max(small.kl_stderr, 1e-12)

    def test_sample_floor_enforced(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        with pytest.raises(ValueError):
            taylor_validation(encoder, decoder, ds.features[:8], [0.1],
                              samples=19, seed=8)


class TestRegularizerTrack:
    def test_penalty_linear_in_sigma2(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        rows = regularizer_track([("m", encoder, decoder)], [20.0, 10.0], test_set)
        sigma_a, reg_a = rows[0][2], rows[0][4]
        sigma_b, reg_b = rows[1][2], rows[1][4]
        assert reg_b / reg_a == pytest.approx(sigma_b / sigma_a, rel=1e-12)

    def test_zero_weight_decoder_zero_everywhere(self):
        encoder, decoder = uniform_pair()
        ds = make_rings(4, 20, noise=0.1, seed=43)
        rows = regularizer_track([("u", encoder, decoder)], [20.0, 5.0], ds)
        assert all(row[4] == 0.0 for row in rows)

    def test_regularized_twin_has_lower_trace(self):
        """Shared-seed training with/without penalty: penalty reduces Tr(I)."""
        seed = 88
        ds = make_rings(3, 80, noise=0.15, seed=derive_seed(seed, "data"))
        traces = {}
        for lam in (0.0, 0.5):
            encoder = EncoderModel(2, 6, power=1.0, hidden=(32,),
                                   seed=derive_seed(seed, "enc"))
            decoder = DecoderModel(6, 3, hidden=(32,), seed=derive_seed(seed, "dec"))
            train(TrainConfig(lam=lam, epochs=25, batch_size=32, seed=seed,
                              psnr=FixedPsnr(20.0), omit_sigma2=(lam > 0)),
                  ds, encoder, decoder)
            rows = regularizer_track([("m", encoder, decoder)], [10.0], ds)
            traces[lam] = rows[0][3]
        assert traces[0.5] < traces[0.0]


class TestTopTwoComponents:
    def test_matches_dense_eigensolver(self):
        """Top-2 eigenvectors vs numpy.linalg.eigh, up to sign, k <= 8."""
        for seed in range(5):
            rng = CounterRng(seed + 300)
            raw = rng.normals(64).reshape(8, 8)
            matrix = raw.T @ raw
            v1, v2 = top_two_components(matrix)
            values, vectors = np.linalg.eigh(matrix)
            ref1, ref2 = vectors[:, -1], vectors[:, -2]
            assert min(np.linalg.norm(v1 - ref1), np.linalg.norm(v1 + ref1)) <= 1e-6
            assert min(np.linalg.norm(v2 - ref2), np.linalg.norm(v2 + ref2)) <= 1e-6

    def test_axes_orthonormal(self):
        rng = CounterRng(311)
        raw = rng.normals(36).reshape(6, 6)
        v1, v2 = top_two_components(raw.T @ raw)
        assert abs(np.linalg.norm(v1) - 1.0) <= 1e-10
        assert abs(np.linalg.norm(v2) - 1.0) <= 1e-10
        assert abs(float(v1 @ v2)) <= 1e-10

    def test_largest_entry_positive(self):
        """The sign rule: each axis's entry of largest magnitude is positive,
        whichever sign the eigensolver returns."""
        raw = CounterRng(312).normals(49).reshape(7, 7)
        for matrix in (raw.T @ raw, raw @ raw.T):
            for axis in top_two_components(matrix):
                assert axis[np.argmax(np.abs(axis))] > 0.0
        v1, v2 = top_two_components(np.diag([1.0, 5.0, 2.0]))
        np.testing.assert_array_equal(v1, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(v2, [0.0, 0.0, 1.0])

    def test_rank_one_rejected(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="rank-1"):
            top_two_components(np.outer(v, v))

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank-0"):
            top_two_components(np.zeros((3, 3)))


class TestPosteriorGrid:
    def test_center_cell_matches_log_posterior(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        grid = posterior_grid(encoder, decoder, ds, sample_index=3, resolution=9,
                              extent_std=2.0, sigma2=0.01)
        z0 = encoder.encode(ds.features)[3]
        expected = -decoder.log_posterior(z0, int(ds.labels[3])).item()
        assert grid.values[4, 4] == pytest.approx(expected, rel=1e-12)
        assert grid.center_value == pytest.approx(expected, rel=1e-12)

    def test_axes_orthonormal(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        grid = posterior_grid(encoder, decoder, ds, sample_index=0, resolution=8,
                              extent_std=1.0, sigma2=0.05)
        assert abs(np.linalg.norm(grid.axis1) - 1.0) <= 1e-10
        assert abs(float(grid.axis1 @ grid.axis2)) <= 1e-10

    def test_resolution_floor(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        with pytest.raises(ValueError):
            posterior_grid(encoder, decoder, ds, 0, resolution=7,
                           extent_std=1.0, sigma2=0.05)

    @pytest.mark.parametrize("where", ["negative", "past_end"])
    def test_sample_index_out_of_range_rejected(self, trained_pair, where):
        encoder, decoder, ds, _ = trained_pair
        index = -1 if where == "negative" else len(ds.labels)
        with pytest.raises(ValueError, match="sample_index"):
            posterior_grid(encoder, decoder, ds, index, resolution=8,
                           extent_std=1.0, sigma2=0.05)

    def test_degenerate_covariance_rejected(self):
        encoder = EncoderModel(2, 4, power=1.0, hidden=(), seed=0)
        # Rank-1 representations: all encoder outputs proportional to one vector.
        encoder.params["W0"].data[:] = 0.0
        encoder.params["W0"].data[0, 0] = 1.0
        decoder = DecoderModel(4, 3, hidden=(), seed=1)
        ds = make_rings(3, 20, noise=0.1, seed=44)
        with pytest.raises(ValueError, match="rank"):
            posterior_grid(encoder, decoder, ds, 0, resolution=9,
                           extent_std=1.0, sigma2=0.05)

    def test_csv_long_format(self, trained_pair, tmp_path):
        encoder, decoder, ds, _ = trained_pair
        grid = posterior_grid(encoder, decoder, ds, 0, resolution=8,
                              extent_std=1.0, sigma2=0.05)
        path = tmp_path / "grid.csv"
        write_posterior_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=fisherjscc.posterior.v1"
        assert lines[1] == "a,b,neg_log_posterior"
        assert len(lines) == 2 + 64


class TestPairedCompare:
    def test_identical_models_zero_deltas(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        rows = paired_compare(encoder, decoder, encoder, decoder, test_set,
                              [5.0, 15.0], "awgn", trials=5, seed=11)
        assert len(rows) == 2
        assert all(r["delta"] == 0.0 and r["sign"] == "tie" for r in rows)

    def test_row_count_matches_grid(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        rows = paired_compare(encoder, decoder, encoder, decoder, test_set,
                              [5.0, 10.0, 15.0], "rayleigh", trials=3, seed=12)
        assert len(rows) == 3


class TestSweepCsv:
    def test_schema_header_and_determinism(self, trained_pair, tmp_path):
        encoder, decoder, _, test_set = trained_pair
        result = error_sweep(encoder, decoder, test_set, [5.0, 10.0], "awgn",
                             trials=3, seed=13)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(result, path_a)
        write_sweep_csv(error_sweep(encoder, decoder, test_set, [5.0, 10.0], "awgn",
                                    trials=3, seed=13), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_text().splitlines()[0] == "# schema=fisherjscc.sweep.v1"


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0
