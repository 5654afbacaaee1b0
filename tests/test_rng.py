"""Counter-based generator: determinism, statistics, seed fan-out."""

import numpy as np
import pytest

from fisherjscc.rng import CounterRng, derive_seed

from _oracles import normals_two_calls


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = CounterRng(123).uniforms(1000)
        b = CounterRng(123).uniforms(1000)
        np.testing.assert_array_equal(a, b)

    def test_draws_independent_of_call_granularity(self):
        whole = CounterRng(9).uniforms(10)
        rng = CounterRng(9)
        pieces = np.concatenate([rng.uniforms(3), rng.uniforms(7)])
        np.testing.assert_array_equal(whole, pieces)

    def test_different_seeds_differ(self):
        assert not np.array_equal(CounterRng(1).uniforms(10), CounterRng(2).uniforms(10))

    def test_normals_reproducible(self):
        np.testing.assert_array_equal(CounterRng(5).normals(101), CounterRng(5).normals(101))

    def test_normals_depend_on_call_granularity(self):
        """Each call takes its u1 block, then its u2 block, so a split call differs."""
        whole = CounterRng(9).normals(4)
        rng = CounterRng(9)
        pieces = np.concatenate([rng.normals(2), rng.normals(2)])
        assert not np.array_equal(whole, pieces)
        assert CounterRng(9).normals(0).shape == (0,)

    @pytest.mark.parametrize("n", [1, 3, 512, 2**19])
    def test_normals_equal_the_two_call_box_muller(self, n):
        """One word request transformed in place gives the two-request values, mid-stream too."""
        rng, reference = CounterRng(77), CounterRng(77)
        assert np.array_equal(rng.normals(5), normals_two_calls(reference, 5))
        assert np.array_equal(rng.normals(n), normals_two_calls(reference, n))


class TestManyStreams:
    """A generator over a sequence of seeds: row i is CounterRng(seed_i)."""

    SEEDS = [derive_seed(4, "stream", i) for i in range(3)] + [0, 2**64 - 1]

    @pytest.mark.parametrize("method", ["normals", "uniforms"])
    @pytest.mark.parametrize("n", [1, 2, 3, 512, 4801])
    def test_rows_equal_per_seed_generators(self, method, n):
        stacked = CounterRng(self.SEEDS)
        singles = [CounterRng(seed) for seed in self.SEEDS]
        assert stacked.stream_shape == (len(self.SEEDS),) and singles[0].stream_shape == ()
        for _ in range(2):
            rows = getattr(stacked, method)(n)
            assert rows.shape == (len(self.SEEDS), n)
            assert np.array_equal(rows, np.stack([getattr(rng, method)(n) for rng in singles]))

    @pytest.mark.parametrize("call", [lambda rng: rng.uniform(0.0, 1.0),
                                      lambda rng: rng.permutation(4)],
                             ids=["uniform", "permutation"])
    def test_scalar_draws_refuse_many_streams(self, call):
        with pytest.raises(ValueError, match="single-stream"):
            call(CounterRng([1, 2]))


class TestStatistics:
    def test_uniform_range_and_mean(self):
        u = CounterRng(2024).uniforms(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 4.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(100_000)

    @pytest.mark.parametrize("low, high", [(10.0, 25.0), (-3.0, 2.0)])
    def test_scalar_uniform_stays_in_its_range(self, low, high):
        """uniform(low, high) lies in [low, high) for every seed, and covers the range."""
        draws = [CounterRng(seed).uniform(low, high) for seed in range(2_000)]
        assert all(low <= x < high for x in draws)
        assert min(draws) < low + 0.01 * (high - low) and max(draws) > high - 0.01 * (high - low)

    def test_normal_moments(self):
        z = CounterRng(31337).normals(100_000)
        assert abs(z.mean()) < 4.0 / np.sqrt(100_000)
        assert abs(z.var() - 1.0) < 0.02

    def test_permutation_is_a_permutation(self):
        perm = CounterRng(8).permutation(257)
        assert sorted(perm.tolist()) == list(range(257))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "noise", 3) == derive_seed(7, "noise", 3)

    def test_labels_distinguish_streams(self):
        seeds = {
            derive_seed(7, "noise", 3),
            derive_seed(7, "noise", 4),
            derive_seed(7, "shuffle", 3),
            derive_seed(8, "noise", 3),
        }
        assert len(seeds) == 4

    def test_no_string_int_confusion(self):
        assert derive_seed(1, "a", 1) != derive_seed(1, "a1")
        assert derive_seed(1, "a", "1") != derive_seed(1, "a", 1)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            derive_seed(1, 3.5)
