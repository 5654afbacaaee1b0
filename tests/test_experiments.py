"""Evaluation harness: sweeps, approximation tables, maps, eigensolver."""

import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc import experiments, robustness
from fisherjscc.channel import psnr_to_sigma2
from fisherjscc.data import make_rings
from fisherjscc.data import write_csv
from fisherjscc.experiments import (POSTERIOR_HEADER, POSTERIOR_SCHEMA, SWEEP_BLOCK_ROWS,
                                    SWEEP_SCHEMA, SweepRow, error_sweep, paired_compare, posterior_grid,
                                    posterior_rows, regularizer_track, taylor_validation,
                                    top_two_components)
from fisherjscc.models import DecoderModel, EncoderModel
from fisherjscc.rng import CounterRng, derive_seed
from fisherjscc.train import FixedPsnr, TrainConfig, train

from _oracles import error_sweep_per_trial, expected_kl_rows_serial, spearman


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
        assert result[0].error_rate == exact
        assert result[0].mean_expected_kl == 0.0

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
            errors = [row.error_rate for row in result]
            if spearman(grid, errors) < 0.0:
                wins += 1
        assert wins >= 2

    def test_uniform_decoder_sits_at_chance(self):
        """Uniform posterior predicts class 0 always: error = 1 - 1/C exactly
        on balanced data, and about that under any noise level."""
        encoder, decoder = uniform_pair()
        ds = make_rings(4, 150, noise=0.1, seed=41)  # 600 samples, T=20 -> 12000 draws
        result = error_sweep(encoder, decoder, ds, [10.0], "awgn", trials=20, seed=2)
        assert abs(result[0].error_rate - 0.75) <= 0.02

    def test_deterministic_given_seed(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        a = error_sweep(encoder, decoder, test_set, [5.0, 15.0], "awgn", trials=5, seed=9)
        b = error_sweep(encoder, decoder, test_set, [5.0, 15.0], "awgn", trials=5, seed=9)
        assert a == b

    def test_duplicate_cells_rejected(self, trained_pair, monkeypatch):
        """A repeated PSNR is refused before the sweep encodes or decodes anything."""
        encoder, decoder, _, test_set = trained_pair
        calls = []
        monkeypatch.setattr(encoder, "encode", lambda x: calls.append("encode"))
        monkeypatch.setattr(decoder, "decode", lambda z: calls.append("decode"))
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            error_sweep(encoder, decoder, test_set, [10.0, 10.0], "awgn", trials=3, seed=1)
        assert calls == []

    def test_overflowing_psnr_rejected_before_any_cell(self, trained_pair, monkeypatch):
        """A PSNR whose noise variance overflows is refused, naming the grid, before
        the sweep encodes or decodes anything."""
        encoder, decoder, _, test_set = trained_pair
        calls = []
        monkeypatch.setattr(encoder, "encode", lambda x: calls.append("encode"))
        monkeypatch.setattr(decoder, "decode", lambda z: calls.append("decode"))
        with pytest.raises(ValueError, match="psnr_grid: PSNR -4000.0 dB"):
            error_sweep(encoder, decoder, test_set, [5.0, -4000.0], "awgn", trials=3, seed=1)
        assert calls == []

    def test_rayleigh_family_runs(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        result = error_sweep(encoder, decoder, test_set, [10.0], "rayleigh",
                             trials=5, seed=3)
        assert 0.0 <= result[0].error_rate <= 1.0

    def test_thread_count_does_not_change_results(self, trained_pair):
        """Per-cell generators plus ordered merge: threads=2 equals threads=1."""
        encoder, decoder, _, test_set = trained_pair
        grid = [5.0, 10.0, 15.0, 20.0]
        serial = error_sweep(encoder, decoder, test_set, grid, "awgn",
                             trials=4, seed=17, threads=1)
        threaded = error_sweep(encoder, decoder, test_set, grid, "awgn",
                               trials=4, seed=17, threads=2)
        assert serial == threaded

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("trials", [1, 6, 13])
    def test_trial_blocks_equal_the_per_trial_loop(self, trained_pair, trials, family,
                                                   threads):
        """600 rows make blocks of 6 trials, so 13 trials end on a block of one."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        assert SWEEP_BLOCK_ROWS // len(test_set) == 6
        grid = [5.0, float("inf"), 15.0]
        assert (error_sweep(encoder, decoder, test_set, grid, family, trials, seed=21,
                            threads=threads)
                == error_sweep_per_trial(encoder, decoder, test_set, grid, family, trials, 21))

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_more_rows_than_a_block_draw_one_trial_per_call(self, trained_pair, family):
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 1366, noise=0.15, seed=derive_seed(900, "data"), split="test")
        assert len(test_set) > SWEEP_BLOCK_ROWS
        assert (error_sweep(encoder, decoder, test_set, [10.0], family, 3, seed=22)
                == error_sweep_per_trial(encoder, decoder, test_set, [10.0], family, 3, 22))

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_one_decode_per_noise_block(self, trained_pair, monkeypatch, family):
        """600 rows and 13 trials make blocks of 6, 6 and 1 trials. The clean posteriors
        take one decode, and each noisy cell one decode per block, of the whole stack."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        shapes, decode = [], decoder.decode

        def counted(z):
            shapes.append(np.shape(z))
            return decode(z)

        monkeypatch.setattr(decoder, "decode", counted)
        error_sweep(encoder, decoder, test_set, [5.0, float("inf"), 15.0], family, 13,
                    seed=21, threads=1)
        blocks = [(6, 600, 6), (6, 600, 6), (1, 600, 6)]
        assert shapes == [(600, 6), *blocks, *blocks]

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_one_block_is_live_at_each_draw(self, trained_pair, live_at_each_draw, family):
        """Blocks of 6, 6 and 1 trials in each noisy cell: nothing of a block is alive
        when the next is drawn, in its cell or in the next."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        live = live_at_each_draw(experiments)
        error_sweep(encoder, decoder, test_set, [5.0, float("inf"), 15.0], family, 13,
                    seed=21, threads=1)
        assert live == [0] * 5

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pool_cells_follow_the_callers_error_policy(self, threads):
        """A decoder that overflows only on noisy inputs: with overflow raised in the
        calling thread, the cells raise numpy's error instead of warning."""
        encoder = EncoderModel(2, 2, power=1.0, hidden=(8,), seed=3)
        decoder = DecoderModel(2, 2, hidden=(1,), seed=3)
        # relu(1e10 * (z_0 - 1)) is 0 at every clean z (|z_0| <= 1) and huge past it.
        decoder.params["W0"].data[:] = [[1e10], [0.0]]
        decoder.params["b0"].data[:] = -1e10
        decoder.params["W1"].data[:] = [[1e300, -1e300]]
        ds = make_rings(2, 20, noise=0.1, seed=5)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            error_sweep(encoder, decoder, ds, [0.0], "awgn", trials=5, seed=6,
                        threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_builds_no_tensor(self, trained_pair, tensors_built_by, threads):
        encoder, decoder, _, test_set = trained_pair
        assert tensors_built_by(error_sweep, encoder, decoder, test_set,
                                [float("inf"), 10.0], "rayleigh", trials=2, seed=3,
                                threads=threads) == 0


class TestWorkerCount:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool `_map_cells` starts, in order."""
        sizes = []

        class RecordingPool(experiments.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("cpus, threads, cells, workers", [
        (8, None, 3, 3), (2, None, 3, 2), (1, None, 3, 1), (8, 5, 2, 2), (8, 1, 4, 1),
        (8, None, 0, 1),
    ])
    def test_one_worker_per_cpu_and_never_more_than_cells(self, monkeypatch, pool_sizes,
                                                          cpus, threads, cells, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert experiments._map_cells(lambda i: i * i, cells, threads) == [
            i * i for i in range(cells)]
        assert pool_sizes == [workers]

    def test_cpu_count_where_there_is_no_affinity_call(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        experiments._map_cells(lambda i: i, 5, None)
        assert pool_sizes == [3]

    def test_default_equals_one_thread(self, trained_pair, monkeypatch, pool_sizes):
        """Four CPUs: the default runs each function's cells on a pool of one worker
        per cell, and gives the rows of threads=1."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        encoder, decoder, ds, test_set = trained_pair
        grid = [5.0, 15.0, 25.0]
        sigma2_grid = [psnr_to_sigma2(p, 1.0) for p in grid]
        runs = [(error_sweep, (encoder, decoder, test_set, grid, "rayleigh", 3, 31)),
                (taylor_validation, (encoder, decoder, ds.features[:40], sigma2_grid, 200, 32)),
                (paired_compare, (encoder, decoder, encoder, decoder, test_set, grid, "awgn",
                                  3, 33))]
        for function, args in runs:
            del pool_sizes[:]
            default = function(*args)
            assert set(pool_sizes) == {3}
            del pool_sizes[:]
            assert default == function(*args, threads=1)
            assert set(pool_sizes) == {1}


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

    def test_thread_count_does_not_change_results(self, trained_pair):
        """Per-cell generators plus ordered merge: threads=2 equals threads=1."""
        encoder, decoder, ds, _ = trained_pair
        grid = [psnr_to_sigma2(p, 1.0) for p in (25.0, 20.0, 15.0, 10.0)] + [0.0]
        serial = taylor_validation(encoder, decoder, ds.features[:40], grid,
                                   samples=300, seed=9, threads=1)
        threaded = taylor_validation(encoder, decoder, ds.features[:40], grid,
                                     samples=300, seed=9, threads=2)
        assert serial == threaded

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pool_cells_follow_the_callers_error_policy(self, threads):
        """A decoder that overflows only on noisy inputs: with overflow raised in the
        calling thread, the cells raise numpy's error instead of warning."""
        encoder = EncoderModel(2, 2, power=1.0, hidden=(8,), seed=3)
        decoder = DecoderModel(2, 2, hidden=(1,), seed=3)
        # relu(1e10 * (z_0 - 1)) is 0 at every clean z (|z_0| <= 1) and huge past it.
        decoder.params["W0"].data[:] = [[1e10], [0.0]]
        decoder.params["b0"].data[:] = -1e10
        decoder.params["W1"].data[:] = [[1e300, -1e300]]
        ds = make_rings(2, 20, noise=0.1, seed=5)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            taylor_validation(encoder, decoder, ds.features, [1.0, 0.5], samples=50, seed=6,
                              threads=threads)

    def test_sample_floor_enforced(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        with pytest.raises(ValueError):
            taylor_validation(encoder, decoder, ds.features[:8], [0.1],
                              samples=19, seed=8)

    @pytest.mark.parametrize("n, samples, chunk_rows", [(300, 700, None), (3, 25, 1)],
                             ids=["uneven-last-block", "one-draw-per-block"])
    def test_moments_equal_the_kl_table(self, trained_pair, monkeypatch, n, samples,
                                        chunk_rows):
        """The per-point moments are np.mean and np.var(ddof=1) of the serial oracle's
        [n, samples] table, and the row's mean and standard error are the table's."""
        if chunk_rows is not None:
            monkeypatch.setattr(robustness, "KL_CHUNK_ROWS", chunk_rows)
        encoder, decoder, ds, _ = trained_pair
        features, sigma2 = ds.features[:n], psnr_to_sigma2(15.0, 1.0)
        z = encoder.encode(features)
        table = expected_kl_rows_serial(decoder, z, sigma2, samples,
                                        CounterRng(derive_seed(12, "taylor", 0)))
        count, mean, m2 = experiments._point_moments(robustness._expected_kl_rows(
            decoder, z, sigma2, samples, CounterRng(derive_seed(12, "taylor", 0))))
        assert count == samples and mean.shape == m2.shape == (n,)
        np.testing.assert_allclose(mean, table.mean(axis=1), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(m2 / (count - 1), table.var(axis=1, ddof=1),
                                   rtol=1e-12, atol=0.0)
        row = taylor_validation(encoder, decoder, features, [sigma2], samples, seed=12,
                                threads=1)[0]
        assert row.mean_expected_kl == pytest.approx(table.mean(), rel=1e-12)
        assert row.kl_stderr == pytest.approx(table.std(ddof=1) / math.sqrt(table.size),
                                              rel=1e-12)

    def test_no_kl_block_is_live_at_the_next_draw(self, trained_pair, monkeypatch):
        """256 points x 600 draws make blocks of 256, 256 and 88 draws; the generator
        and the fold both drop a block's KL rows before the next block is drawn."""
        encoder, decoder, ds, _ = trained_pair
        draw, kl_rows = robustness.channel_noise, robustness._kl_rows
        block, live = [], []

        def noise(*args, **kwargs):
            if block:
                live.append(sum(ref() is not None for ref in block))
                block.clear()
            return draw(*args, **kwargs)

        def kl(p, q):
            rows = kl_rows(p, q)
            block.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(robustness, "channel_noise", noise)
        monkeypatch.setattr(robustness, "_kl_rows", kl)
        taylor_validation(encoder, decoder, ds.features[:256], [psnr_to_sigma2(20.0, 1.0)],
                          600, seed=14, threads=1)
        assert live == [0, 0]

    def test_cell_memory_does_not_grow_with_samples(self, trained_pair):
        """One 256-point cell at threads=1 peaks within 1 MiB at 10,000 draws of its
        peak at 2,000 (tracemalloc): a [points, draws] table would add 16 MB."""
        encoder, decoder, ds, _ = trained_pair

        def peak(samples):
            tracemalloc.start()
            try:
                taylor_validation(encoder, decoder, ds.features[:256],
                                  [psnr_to_sigma2(20.0, 1.0)], samples, seed=13, threads=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(2_000), peak(10_000)
        assert many - few <= 2**20, (few, many)


class TestRegularizerTrack:
    def test_penalty_linear_in_sigma2(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        rows = regularizer_track(encoder, decoder, [20.0, 10.0], test_set)
        sigma_a, reg_a = rows[0][2], rows[0][4]
        sigma_b, reg_b = rows[1][2], rows[1][4]
        assert reg_b / reg_a == pytest.approx(sigma_b / sigma_a, rel=1e-12)

    def test_zero_weight_decoder_zero_everywhere(self):
        encoder, decoder = uniform_pair()
        ds = make_rings(4, 20, noise=0.1, seed=43)
        rows = regularizer_track(encoder, decoder, [20.0, 5.0], ds)
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
            rows = regularizer_track(encoder, decoder, [10.0], ds)
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
        expected = -decoder.log_posterior_all(ad.Tensor(z0)).data[0, int(ds.labels[3])]
        assert grid.values[4, 4] == pytest.approx(expected, rel=1e-12)

    def test_builds_no_tensor(self, trained_pair, tensors_built_by):
        encoder, decoder, ds, _ = trained_pair
        assert tensors_built_by(posterior_grid, encoder, decoder, ds, sample_index=3,
                                resolution=8, extent_std=2.0, sigma2=0.01) == 0

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

    @pytest.mark.parametrize("extent_std", [0.0, -1.0])
    def test_extent_must_be_positive(self, trained_pair, extent_std):
        encoder, decoder, ds, _ = trained_pair
        with pytest.raises(ValueError, match="extent_std"):
            posterior_grid(encoder, decoder, ds, 0, resolution=8,
                           extent_std=extent_std, sigma2=0.05)

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
        write_csv(path, POSTERIOR_SCHEMA, POSTERIOR_HEADER, posterior_rows(grid))
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=fisherjscc.posterior.v1"
        assert lines[1] == "a,b,neg_log_posterior"
        assert len(lines) == 2 + 64
        a, b, value = (float(cell) for cell in lines[2 + 8 + 3].split(","))
        assert (a, b, value) == (grid.offsets1[1], grid.offsets2[3], grid.values[1, 3])

    def test_rows_stream_to_the_file(self, tmp_path):
        """Writing a 300 x 300 map holds no row per cell: the peak above the grid stays
        under 1 MiB, where a list of the rows held about 10.9 MB."""
        offsets = np.linspace(-1.0, 1.0, 300)
        values = CounterRng(31).normals(300 * 300).reshape(300, 300)
        grid = experiments.PosteriorGrid(np.eye(2)[0], np.eye(2)[1], offsets, offsets.copy(),
                                         values)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "grid.csv", POSTERIOR_SCHEMA, POSTERIOR_HEADER,
                      posterior_rows(grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len((tmp_path / "grid.csv").read_text().splitlines()) == 2 + 300 * 300


class TestPairedCompare:
    def test_identical_models_zero_deltas(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        rows = paired_compare(encoder, decoder, encoder, decoder, test_set,
                              [5.0, 15.0], "awgn", trials=5, seed=11)
        assert len(rows) == 2
        assert all(r.delta == 0.0 and r.sign == "tie" for r in rows)

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
        write_csv(path_a, SWEEP_SCHEMA, SweepRow._fields, result)
        write_csv(path_b, SWEEP_SCHEMA, SweepRow._fields,
                  error_sweep(encoder, decoder, test_set, [5.0, 10.0], "awgn",
                              trials=3, seed=13))
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_text().splitlines()[:2] == [
            "# schema=fisherjscc.sweep.v2",
            "regime,psnr_db,family,error_rate,mean_expected_kl"]


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0
