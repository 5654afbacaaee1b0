"""Evaluation harness: sweeps, approximation tables, maps, eigensolver."""

import copy
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from fisherjscc import autodiff as ad
from fisherjscc import experiments
from fisherjscc.channel import psnr_to_sigma2
from fisherjscc.data import make_rings
from fisherjscc.data import write_csv
from fisherjscc.experiments import (POSTERIOR_HEADER, POSTERIOR_SCHEMA, SWEEP_BLOCK_ROWS,
                                    SWEEP_SCHEMA, SweepRow, error_sweep, paired_compare,
                                    posterior_grid, posterior_rows, taylor_validation,
                                    top_two_components)
from fisherjscc.models import DecoderModel, EncoderModel
from fisherjscc.robustness import mean_fisher_trace
from fisherjscc.rng import CounterRng, derive_seed
from fisherjscc.train import FixedPsnr, TrainConfig, train

from _oracles import (error_sweep_per_trial, expected_kl_rows_serial, spearman,
                      sweep_kl_reference)


@pytest.fixture(scope="module")
def trained_pair():
    ds = make_rings(3, 100, noise=0.15, seed=derive_seed(900, "data"))
    encoder = EncoderModel(2, 6, power=1.0, hidden=(32,), seed=derive_seed(900, "enc"))
    decoder = DecoderModel(6, 3, hidden=(32,), seed=derive_seed(900, "dec"))
    train(TrainConfig(lam=0.0, epochs=30, batch_size=32, seed=900,
                      psnr=FixedPsnr(15.0)), ds, encoder, decoder)
    test_set = make_rings(3, 100, noise=0.15, seed=derive_seed(900, "data"), split="test")
    return encoder, decoder, ds, test_set


@pytest.fixture(scope="module")
def other_pair():
    """A second (encoder, decoder) of `trained_pair`'s shapes, trained with the penalty
    from other seeds."""
    ds = make_rings(3, 100, noise=0.15, seed=derive_seed(901, "data"))
    encoder = EncoderModel(2, 6, power=1.0, hidden=(32,), seed=derive_seed(901, "enc"))
    decoder = DecoderModel(6, 3, hidden=(32,), seed=derive_seed(901, "dec"))
    train(TrainConfig(lam=0.5, epochs=10, batch_size=32, seed=901,
                      psnr=FixedPsnr(15.0)), ds, encoder, decoder)
    return encoder, decoder


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
        [result] = error_sweep([(encoder, decoder)], test_set, [float("inf")], "awgn",
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
            [result] = error_sweep([(encoder, decoder)], ds, grid, "awgn", trials=10,
                                   seed=seed)
            errors = [row.error_rate for row in result]
            if spearman(grid, errors) < 0.0:
                wins += 1
        assert wins >= 2

    def test_uniform_decoder_sits_at_chance(self):
        """Uniform posterior predicts class 0 always: error = 1 - 1/C exactly
        on balanced data, and about that under any noise level."""
        encoder, decoder = uniform_pair()
        ds = make_rings(4, 150, noise=0.1, seed=41)  # 600 samples, T=20 -> 12000 draws
        [result] = error_sweep([(encoder, decoder)], ds, [10.0], "awgn", trials=20, seed=2)
        assert abs(result[0].error_rate - 0.75) <= 0.02

    def test_deterministic_given_seed(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        a = error_sweep([(encoder, decoder)], test_set, [5.0, 15.0], "awgn", trials=5, seed=9)
        b = error_sweep([(encoder, decoder)], test_set, [5.0, 15.0], "awgn", trials=5, seed=9)
        assert a == b

    def test_duplicate_cells_rejected(self, trained_pair, monkeypatch):
        """A repeated PSNR is refused before the sweep encodes or decodes anything."""
        encoder, decoder, _, test_set = trained_pair
        calls = []
        monkeypatch.setattr(encoder, "encode", lambda x: calls.append("encode"))
        monkeypatch.setattr(decoder, "_log_posterior", lambda z: calls.append("decode"))
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            error_sweep([(encoder, decoder)], test_set, [10.0, 10.0], "awgn", trials=3,
                        seed=1)
        assert calls == []

    @pytest.mark.parametrize("repr_dim, power", [(4, 1.0), (6, 2.0)],
                             ids=["repr_dim", "power"])
    def test_pairs_that_cannot_share_a_draw_rejected(self, trained_pair, repr_dim, power):
        """One draw serves every pair, so the pairs must agree on its shape and scale."""
        encoder, decoder, _, test_set = trained_pair
        other = (EncoderModel(2, repr_dim, power=power, hidden=(8,), seed=5),
                 DecoderModel(repr_dim, 3, hidden=(8,), seed=5))
        with pytest.raises(ValueError, match="must share power and repr_dim"):
            error_sweep([(encoder, decoder), other], test_set, [10.0], "awgn", trials=3,
                        seed=1)

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_every_pair_reads_one_draw(self, trained_pair, other_pair, monkeypatch, family):
        """600 rows and 13 trials make three blocks: a one-pair sweep, a two-pair sweep
        and a compare each make three noise requests."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        draw, requests = experiments.channel_noise, []

        def noise(*args):
            requests.append(args[0])
            return draw(*args)

        monkeypatch.setattr(experiments, "channel_noise", noise)
        grid = [5.0, float("inf"), 15.0]
        counts = []
        for pairs in ([(encoder, decoder)], [(encoder, decoder), other_pair]):
            del requests[:]
            error_sweep(pairs, test_set, grid, family, 13, seed=21, threads=1)
            counts.append(len(requests))
        del requests[:]
        paired_compare(encoder, decoder, *other_pair, test_set, grid, family, 13, seed=21,
                       threads=1)
        assert counts + [len(requests)] == [3, 3, 3]

    def test_overflowing_psnr_rejected_before_any_cell(self, trained_pair, monkeypatch):
        """A PSNR whose noise variance overflows is refused, naming the grid, before
        the sweep encodes or decodes anything."""
        encoder, decoder, _, test_set = trained_pair
        calls = []
        monkeypatch.setattr(encoder, "encode", lambda x: calls.append("encode"))
        monkeypatch.setattr(decoder, "_log_posterior", lambda z: calls.append("decode"))
        with pytest.raises(ValueError, match="psnr_grid: PSNR -4000.0 dB"):
            error_sweep([(encoder, decoder)], test_set, [5.0, -4000.0], "awgn", trials=3,
                        seed=1)
        assert calls == []

    def test_rayleigh_kl_is_not_capped(self, trained_pair):
        """A decoder with its logits doubled puts deep Rayleigh fades far below
        log 1e-12 = -27.6; the sweep's KL is still the exactly summed oracle's."""
        encoder, decoder, _, test_set = trained_pair
        sharp = copy.deepcopy(decoder)
        for name in ("W1", "b1"):
            sharp.params[name].data *= 2.0
        [rows] = error_sweep([(encoder, sharp)], test_set, [10.0, 20.0], "rayleigh", 5,
                             seed=31)
        for row in rows:
            expected, lowest = sweep_kl_reference(encoder, sharp, test_set, row.psnr_db,
                                                  "rayleigh", 5, 31)
            assert lowest < math.log(1e-12)
            assert row.mean_expected_kl == pytest.approx(expected, rel=1e-12)

    def test_rayleigh_family_runs(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        [result] = error_sweep([(encoder, decoder)], test_set, [10.0], "rayleigh",
                               trials=5, seed=3)
        assert 0.0 <= result[0].error_rate <= 1.0

    def test_thread_count_does_not_change_results(self, trained_pair):
        """Per-trial generators plus a merge in block order: 300 rows and 30 trials make
        blocks of 13, 13 and 4 trials, and threads=2 equals threads=1."""
        encoder, decoder, _, test_set = trained_pair
        grid = [5.0, 10.0, 15.0, 20.0]
        serial = error_sweep([(encoder, decoder)], test_set, grid, "awgn",
                             trials=30, seed=17, threads=1)
        threaded = error_sweep([(encoder, decoder)], test_set, grid, "awgn",
                               trials=30, seed=17, threads=2)
        assert serial == threaded

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_row_does_not_depend_on_the_rest_of_the_grid(self, trained_pair, family):
        """Every PSNR of a trial shares its draw, so the 15 dB row is the same alone,
        after another PSNR, and in a reordered grid with a noise-free cell."""
        encoder, decoder, _, test_set = trained_pair
        rows = [error_sweep([(encoder, decoder)], test_set, grid, family, trials=15,
                            seed=19)[0]
                for grid in ([15.0], [5.0, 15.0], [25.0, float("inf"), 15.0, 5.0])]
        alone, joined, reordered = ([row for row in sweep if row.psnr_db == 15.0]
                                    for sweep in rows)
        assert len(alone) == 1 and alone == joined == reordered

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("trials", [1, 6, 13])
    def test_trial_blocks_equal_the_per_trial_loop(self, trained_pair, other_pair, trials,
                                                   family, threads):
        """600 rows make blocks of 6 trials, so 13 trials end on a block of one. The
        oracle's rows are also the second pair's of a two-pair sweep."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        assert SWEEP_BLOCK_ROWS // len(test_set) == 6
        grid = [5.0, float("inf"), 15.0]
        oracle = error_sweep_per_trial(encoder, decoder, test_set, grid, family, trials, 21)
        assert error_sweep([(encoder, decoder)], test_set, grid, family, trials, seed=21,
                           threads=threads) == [oracle]
        _, second = error_sweep([other_pair, (encoder, decoder)], test_set, grid, family,
                                trials, seed=21, threads=threads)
        assert second == oracle

    @pytest.mark.parametrize("classes", [3, 65])
    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_rows_do_not_depend_on_threads_pairs_or_grid(self, family, classes):
        """585 rows, not a multiple of 8, make blocks of 7 trials whose column slices
        span trial boundaries, on an 8-64-32-C decoder; at 65 classes a trial's bits
        differ from the same trial decoded alone. A pair's rows are still the same at 1
        and 2 threads, alone and as the second pair of two, and in a reordered grid."""
        test_set = make_rings(3, 195, noise=0.15, seed=derive_seed(901, "data"), split="test")
        assert len(test_set) == 585 and SWEEP_BLOCK_ROWS // len(test_set) == 7
        encoder = EncoderModel(2, 8, power=1.0, hidden=(16,), seed=derive_seed(901, "enc"))
        pair = (encoder, DecoderModel(8, classes, hidden=(64, 32), seed=derive_seed(901, "dec")))
        other = (encoder, DecoderModel(8, classes, hidden=(16,), seed=derive_seed(902, "dec")))

        def rows(pairs, grid, threads):
            sweep = error_sweep(pairs, test_set, grid, family, 15, seed=23, threads=threads)
            return sorted(sweep[-1])

        reference = rows([pair], [5.0, 15.0, float("inf")], 1)
        assert rows([pair], [5.0, 15.0, float("inf")], 2) == reference
        assert rows([other, pair], [5.0, 15.0, float("inf")], 2) == reference
        assert rows([pair], [float("inf"), 15.0, 5.0], 1) == reference

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_more_rows_than_a_block_draw_one_trial_per_call(self, trained_pair, family):
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 1366, noise=0.15, seed=derive_seed(900, "data"), split="test")
        assert len(test_set) > SWEEP_BLOCK_ROWS
        assert (error_sweep([(encoder, decoder)], test_set, [10.0], family, 3, seed=22)
                == [error_sweep_per_trial(encoder, decoder, test_set, [10.0], family, 3, 22)])

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_one_decode_per_noise_block(self, trained_pair, monkeypatch, family):
        """600 rows and 13 trials make blocks of 6, 6 and 1 trials. Each block takes one
        column decode of its whole [k, trials * rows] noisy copy per noisy PSNR."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        shapes, decode = [], decoder._log_posterior_columns

        def counted(columns):
            shapes.append(columns.shape)
            return decode(columns)

        monkeypatch.setattr(decoder, "_log_posterior_columns", counted)
        error_sweep([(encoder, decoder)], test_set, [5.0, float("inf"), 15.0], family, 13,
                    seed=21, threads=1)
        assert shapes == [*[(6, 3600)] * 4, *[(6, 600)] * 2]

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_one_block_is_live_at_each_draw(self, trained_pair, live_at_each_draw, family):
        """Blocks of 6, 6 and 1 trials, each drawn once for both noisy PSNRs: nothing of
        a block, its noise or any PSNR's posteriors, is alive when the next is drawn."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        error_sweep([(encoder, decoder)], test_set, [5.0, float("inf"), 15.0], family, 13,
                    seed=21, threads=1)
        assert live_at_each_draw == [0] * 2

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_one_level_is_live_at_each_decode(self, trained_pair, monkeypatch, family):
        """Each block decodes its noisy copy at both noisy PSNRs in turn: no earlier noisy
        posteriors are alive when the next copy is decoded, in its block or the next."""
        encoder, decoder, _, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        earlier, live, decode = [], [], experiments._noisy_log_posteriors

        def counted(*args):
            live.append(sum(ref() is not None for ref in earlier))
            q = decode(*args)
            owner = q
            while owner.base is not None:
                owner = owner.base
            earlier.append(weakref.ref(owner))
            return q

        monkeypatch.setattr(experiments, "_noisy_log_posteriors", counted)
        error_sweep([(encoder, decoder)], test_set, [5.0, float("inf"), 15.0], family, 13,
                    seed=21, threads=1)
        assert live == [0] * 6

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
            error_sweep([(encoder, decoder)], ds, [0.0], "awgn", trials=5, seed=6,
                        threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_builds_no_tensor(self, trained_pair, tensors_built_by, threads):
        encoder, decoder, _, test_set = trained_pair
        assert tensors_built_by(error_sweep, [(encoder, decoder)], test_set,
                                [float("inf"), 10.0], "rayleigh", trials=2, seed=3,
                                threads=threads) == 0

    def test_sweep_block_peak_memory(self):
        """A one-level sweep of 600 rows on an 8-64-3 decoder peaks under 2 MiB
        (tracemalloc): a block of 6 trials decoded in column layout holds the 64-wide
        hidden layer of one slice of at most 1,024 columns, 0.5 MiB, where the whole
        block's would be 1.8 MiB."""
        encoder = EncoderModel(2, 8, power=1.0, hidden=(16,), seed=3)
        decoder = DecoderModel(8, 3, hidden=(64,), seed=4)
        dataset = make_rings(3, 200, noise=0.15, seed=7)
        assert len(dataset.labels) == 600 and SWEEP_BLOCK_ROWS // 600 == 6
        tracemalloc.start()
        try:
            error_sweep([(encoder, decoder)], dataset, [10.0], "rayleigh", 6, seed=5,
                        threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


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
        assert list(experiments._map_cells(lambda i: i * i, cells, threads)) == [
            i * i for i in range(cells)]
        assert pool_sizes == [workers]

    def test_cpu_count_where_there_is_no_affinity_call(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        list(experiments._map_cells(lambda i: i, 5, None))
        assert pool_sizes == [3]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tasks_ahead_of_the_reader_are_bounded(self, threads):
        """50 cells: while the caller reads, at most two tasks per worker wait beyond the
        one it reads, so pending tasks do not grow with the cell count."""
        started = []
        ahead = []
        for read, value in enumerate(experiments._map_cells(
                lambda i: started.append(i) or i, 50, threads)):
            assert value == read
            ahead.append(len(started) - read)
        assert max(ahead) <= 2 * threads + 1 and len(started) == 50

    def test_a_failed_cell_cancels_the_cells_not_started(self):
        """One worker, 100 cells, cell 3 raises: the cells queued behind it never run."""
        started = []

        def cell(index):
            started.append(index)
            if index == 3:
                raise RuntimeError("cell failed")
            return index

        with pytest.raises(RuntimeError, match="cell failed"):
            list(experiments._map_cells(cell, 100, 1))
        assert started == [0, 1, 2, 3]

    def test_default_equals_one_thread(self, trained_pair, monkeypatch, pool_sizes):
        """Four CPUs: the default runs each function's three tasks (the sweep's blocks of
        6, 6 and 1 trials of 600 rows, or the Taylor blocks of 40 points x 1,000 draws) on
        a pool of one worker per task, and gives the rows of threads 1, 2 and 3."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        encoder, decoder, ds, _ = trained_pair
        test_set = make_rings(3, 200, noise=0.15, seed=derive_seed(900, "data"), split="test")
        grid = [5.0, 15.0, 25.0]
        sigma2_grid = [psnr_to_sigma2(p, 1.0) for p in grid]
        runs = [(error_sweep, ([(encoder, decoder)], test_set, grid, "rayleigh", 13, 31)),
                (taylor_validation, (encoder, decoder, ds.features[:40], sigma2_grid, 1_000,
                                     32)),
                (paired_compare, (encoder, decoder, encoder, decoder, test_set, grid, "awgn",
                                  13, 33))]
        for function, args in runs:
            del pool_sizes[:]
            default = function(*args)
            assert set(pool_sizes) == {3}
            for threads in (1, 2, 3):
                del pool_sizes[:]
                assert default == function(*args, threads=threads)
                assert set(pool_sizes) == {threads}


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
        """Per-block generators plus a merge in block order: 40 points x 1,000 draws are
        three blocks, and threads 2 and 3 give the rows of threads=1."""
        encoder, decoder, ds, _ = trained_pair
        grid = [psnr_to_sigma2(p, 1.0) for p in (25.0, 20.0, 15.0, 10.0)] + [0.0]
        serial = taylor_validation(encoder, decoder, ds.features[:40], grid,
                                   samples=1_000, seed=9, threads=1)
        for threads in (2, 3):
            assert serial == taylor_validation(encoder, decoder, ds.features[:40], grid,
                                               samples=1_000, seed=9, threads=threads)

    @pytest.mark.parametrize("first, second", [((20.0,), (10.0, 20.0)),
                                               ((25.0, 10.0), (10.0, 0.0, 25.0))],
                             ids=["joined", "reordered"])
    def test_row_does_not_depend_on_the_rest_of_the_grid(self, trained_pair, first, second):
        """Every noise level reads the same draws: a level's row has the same bytes
        whichever other levels share the grid, and in whatever order."""
        encoder, decoder, ds, _ = trained_pair

        def rows(psnrs):
            grid = [psnr_to_sigma2(p, 1.0) if p else 0.0 for p in psnrs]
            table = taylor_validation(encoder, decoder, ds.features[:40], grid,
                                      samples=1_000, seed=10, threads=2)
            return {psnr: np.array(row).tobytes() for psnr, row in zip(psnrs, table)}

        alone, together = rows(first), rows(second)
        assert all(alone[psnr] == together[psnr] for psnr in first)

    @pytest.mark.parametrize("levels", [1, 4])
    def test_one_noise_request_per_block(self, trained_pair, monkeypatch, levels):
        """40 points x 1,000 draws are three blocks: three unit-variance requests of
        [draws, 40, k], one per block, whatever the grid's length; after the penalty's
        forward and the one clean decode, each level runs the column forward over each
        block in chunks of whole draws of at most 4,096 columns, split evenly: 409 draws
        as 81 + 4 x 82, and 182 as 2 x 91."""
        encoder, decoder, ds, _ = trained_pair
        draw, requests = experiments.channel_noise, []
        decode, columns, decoded = decoder._log_posterior, decoder._log_posterior_columns, []

        def noise(shape, sigma2, family, rng):
            requests.append((shape, sigma2, family))
            return draw(shape, sigma2, family, rng)

        def recording_decode(z_rows, layers=None):
            decoded.append(len(z_rows))
            return decode(z_rows, layers)

        def recording_columns(z_columns):
            decoded.append(z_columns.shape[1])
            return columns(z_columns)

        monkeypatch.setattr(experiments, "channel_noise", noise)
        monkeypatch.setattr(decoder, "_log_posterior", recording_decode)
        monkeypatch.setattr(decoder, "_log_posterior_columns", recording_columns)
        grid = [psnr_to_sigma2(p, 1.0) for p in (25.0, 20.0, 15.0, 10.0)[:levels]]
        taylor_validation(encoder, decoder, ds.features[:40], grid, samples=1_000, seed=11,
                          threads=1)
        k = encoder.repr_dim
        assert requests == [((409, 40, k), 1.0, "awgn"), ((409, 40, k), 1.0, "awgn"),
                            ((182, 40, k), 1.0, "awgn")]
        chunks = [81, 82, 82, 82, 82] * levels * 2 + [91, 91] * levels
        assert decoded == [40, 40] + [draws * 40 for draws in chunks]

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

    def test_negative_sigma2_refused(self, trained_pair):
        encoder, decoder, ds, _ = trained_pair
        with pytest.raises(ValueError, match="sigma2 must be nonnegative"):
            taylor_validation(encoder, decoder, ds.features[:8], [0.1, -0.1],
                              samples=20, seed=8)

    @pytest.mark.parametrize("n, samples, block_rows", [(300, 700, None), (3, 25, 1)],
                             ids=["uneven-last-block", "one-draw-per-block"])
    def test_moments_equal_the_kl_table(self, trained_pair, monkeypatch, n, samples,
                                        block_rows):
        """The per-point moments are np.mean and np.var(ddof=1) of the serial oracle's
        [n, samples] table, and the row's mean and standard error are the table's."""
        if block_rows is not None:
            monkeypatch.setattr(experiments, "TAYLOR_BLOCK_ROWS", block_rows)
        encoder, decoder, ds, _ = trained_pair
        features, sigma2 = ds.features[:n], psnr_to_sigma2(15.0, 1.0)
        z = encoder.encode(features)
        table = expected_kl_rows_serial(decoder, z, sigma2, samples, 12)
        [(count, mean, m2)] = experiments._kl_moments(decoder, z, [sigma2], samples, 12,
                                                      threads=2)
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
        """256 points x 600 draws make nine blocks of 64 draws and one of 24; the block
        task and the fold both drop a block's KL rows before the next is drawn."""
        encoder, decoder, ds, _ = trained_pair
        draw, kl_rows = experiments.channel_noise, experiments._kl_rows
        block, live = [], []

        def noise(*args, **kwargs):
            if block:
                live.append(sum(ref() is not None for ref in block))
                block.clear()
            return draw(*args, **kwargs)

        def kl(log_p, log_q):
            rows = kl_rows(log_p, log_q)
            block.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(experiments, "channel_noise", noise)
        monkeypatch.setattr(experiments, "_kl_rows", kl)
        taylor_validation(encoder, decoder, ds.features[:256], [psnr_to_sigma2(20.0, 1.0)],
                          600, seed=14, threads=1)
        assert live == [0] * 9

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


    def test_cell_peak_memory(self):
        """One 256-point cell of an 8-64-3 decoder at 2,000 draws and one level peaks
        under 3 MiB (tracemalloc): a block-wide [16384, 64] hidden layer is 8 MiB, and a
        chunk-wide [64, 4096] one 2 MiB, where a 1,024-column slice's is 512 KiB."""
        encoder = EncoderModel(2, 8, power=1.0, hidden=(16,), seed=3)
        decoder = DecoderModel(8, 3, hidden=(64,), seed=4)
        features = CounterRng(5).normals(256 * 2).reshape(256, 2)
        tracemalloc.start()
        try:
            taylor_validation(encoder, decoder, features, [0.01], 2_000, seed=6, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak


class TestRegularizerTrack:
    """The penalty sigma2/2 Tr(I) per noise level, as `taylor_validation` reports it
    in mean_regularizer, and the trace it weighs after training."""

    def test_penalty_linear_in_sigma2(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        grid = [psnr_to_sigma2(p, 1.0) for p in (20.0, 10.0)]
        a, b = taylor_validation(encoder, decoder, test_set.features, grid, samples=20, seed=3)
        trace = mean_fisher_trace(decoder, encoder.encode(test_set.features))
        assert [a.mean_regularizer, b.mean_regularizer] == [0.5 * a.sigma2 * trace,
                                                            0.5 * b.sigma2 * trace]
        assert (b.mean_regularizer / a.mean_regularizer
                == pytest.approx(b.sigma2 / a.sigma2, rel=1e-12))

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
            traces[lam] = mean_fisher_trace(decoder, encoder.encode(ds.features))
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
        assert (a, b, value) == (grid.offsets[1], grid.offsets[3], grid.values[1, 3])

    def test_rows_stream_to_the_file(self, tmp_path):
        """Writing a 300 x 300 map holds no row per cell: the peak above the grid stays
        under 1 MiB, where a list of the rows held about 10.9 MB."""
        offsets = np.linspace(-1.0, 1.0, 300)
        values = CounterRng(31).normals(300 * 300).reshape(300, 300)
        grid = experiments.PosteriorGrid(np.eye(2)[0], np.eye(2)[1], offsets, values)
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

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    def test_each_column_is_its_models_own_sweep(self, trained_pair, other_pair, family):
        """Two different models on one draw: each column, and each pair's rows of the
        two-pair sweep, equal that model's one-pair sweep."""
        encoder, decoder, _, test_set = trained_pair
        grid = [5.0, float("inf"), 15.0, 25.0]
        [alone_a] = error_sweep([(encoder, decoder)], test_set, grid, family, 13, seed=23)
        [alone_b] = error_sweep([other_pair], test_set, grid, family, 13, seed=23)
        assert error_sweep([(encoder, decoder), other_pair], test_set, grid, family, 13,
                           seed=23) == [alone_a, alone_b]
        rows = paired_compare(encoder, decoder, *other_pair, test_set, grid, family, 13,
                              seed=23)
        assert np.array_equal([r.error_a for r in rows], [r.error_rate for r in alone_a])
        assert np.array_equal([r.error_b for r in rows], [r.error_rate for r in alone_b])
        assert any(r.delta != 0.0 for r in rows)

    def test_row_count_matches_grid(self, trained_pair):
        encoder, decoder, _, test_set = trained_pair
        rows = paired_compare(encoder, decoder, encoder, decoder, test_set,
                              [5.0, 10.0, 15.0], "rayleigh", trials=3, seed=12)
        assert len(rows) == 3


class TestSweepCsv:
    def test_schema_header_and_determinism(self, trained_pair, tmp_path):
        encoder, decoder, _, test_set = trained_pair
        [result] = error_sweep([(encoder, decoder)], test_set, [5.0, 10.0], "awgn",
                               trials=3, seed=13)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(path_a, SWEEP_SCHEMA, SweepRow._fields, result)
        write_csv(path_b, SWEEP_SCHEMA, SweepRow._fields,
                  error_sweep([(encoder, decoder)], test_set, [5.0, 10.0], "awgn",
                              trials=3, seed=13)[0])
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_text().splitlines()[:2] == [
            "# schema=fisherjscc.sweep.v3",
            "psnr_db,family,error_rate,mean_expected_kl"]


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0
