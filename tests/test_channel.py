"""Channel simulation: PSNR bookkeeping, noise statistics, fading reduction."""

import numpy as np
import pytest

from fisherjscc import channel
from fisherjscc.channel import (H_FLOOR, channel_noise, draw_fading_coefficients,
                                gaussian_noise, psnr_to_sigma2)
from fisherjscc.rng import CounterRng, derive_seed


class TestPsnrConversion:
    def test_ten_db_unit_power(self):
        assert psnr_to_sigma2(10.0, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_zero_db_unit_power(self):
        assert psnr_to_sigma2(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_twenty_db_power_four(self):
        assert psnr_to_sigma2(20.0, 4.0) == pytest.approx(0.04, rel=1e-12)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            psnr_to_sigma2(10.0, 0.0)

    @pytest.mark.parametrize("psnr_db, power", [(-4000.0, 1.0), (-100.0, 1e300),
                                                (np.float64(-4000.0), 1.0),
                                                (float("nan"), 1.0)],
                             ids=["pow-overflow", "product-overflow", "float64", "nan"])
    def test_non_finite_variance_rejected(self, psnr_db, power):
        """10^400 overflows a float (OverflowError), 1e300 * 1e10 is inf: both ValueError."""
        with pytest.raises(ValueError, match="not a finite float"):
            psnr_to_sigma2(psnr_db, power)


@pytest.mark.parametrize("family", ["awgn", "rayleigh"])
class TestChannelNoise:
    def test_zero_sigma_gives_zeros(self, family):
        """Zeros of the asked shape, training's (L, b, k) included, and no word drawn."""
        for shape in [(5, 8), (4, 5, 8)]:
            rng = CounterRng(4)
            noise = channel_noise(shape, 0.0, family, rng)
            assert noise.shape == shape
            assert np.all(noise == 0.0)
            assert rng._counter == 0

    def test_same_seed_identical(self, family):
        a = channel_noise((3, 4), 0.2, family, CounterRng(9))
        b = channel_noise((3, 4), 0.2, family, CounterRng(9))
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma2_rejected(self, family):
        with pytest.raises(ValueError):
            channel_noise((1, 2), -0.1, family, CounterRng(0))


class TestAwgnStatistics:
    def test_sample_variance(self):
        """10^5 scalar draws at sigma2=0.1: sample variance inside [0.095, 0.105]."""
        noise = channel_noise((100_000, 1), 0.1, "awgn", CounterRng(777))
        assert 0.095 <= float(noise.var()) <= 0.105

    def test_mean_near_zero_per_coordinate(self):
        sigma2 = 0.25
        noise = channel_noise((100_000, 2), sigma2, "awgn", CounterRng(11))
        bound = 4.0 * np.sqrt(sigma2) / np.sqrt(100_000)
        assert np.all(np.abs(noise.mean(axis=0)) < bound)


class TestFading:
    def test_h_magnitude_unit_mean(self):
        """10^5 |h|^2 draws: sample mean inside [0.98, 1.02]."""
        h = draw_fading_coefficients(100_000, CounterRng(501))
        mean_power = float((np.abs(h) ** 2).mean())
        assert 0.98 <= mean_power <= 1.02

    def test_floor_keeps_values_finite(self, monkeypatch):
        """A coefficient below the floor amplifies by 1/H_FLOOR, never to inf."""
        monkeypatch.setattr(channel, "draw_fading_coefficients",
                            lambda n, rng: np.full(n, 1e-9 + 0j))
        noise = channel_noise((1, 2), 0.1, "rayleigh", CounterRng(1))
        assert np.all(np.isfinite(noise))
        np.testing.assert_array_equal(
            noise, gaussian_noise((1, 2), 0.1, CounterRng(1)) / H_FLOOR)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            channel_noise((2, 2), 0.1, "fast-fading", CounterRng(0))


class TestStreamLayout:
    """The draw order every caller's bytes depend on."""

    @pytest.mark.parametrize("shape", [(5, 3), (4, 5, 3)])
    def test_awgn_is_gaussian_noise(self, shape):
        np.testing.assert_array_equal(channel_noise(shape, 0.3, "awgn", CounterRng(12)),
                                      gaussian_noise(shape, 0.3, CounterRng(12)))

    @pytest.mark.parametrize("family", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("sigma2", [0.0, 0.3])
    @pytest.mark.parametrize("shape", [(600, 8), (3, 5, 8)])
    def test_stream_axis_rows_equal_per_stream_calls(self, family, sigma2, shape):
        seeds = [derive_seed(5, "trial", t) for t in range(4)]
        stacked = channel_noise(shape, sigma2, family, CounterRng(seeds))
        assert stacked.shape == (len(seeds), *shape)
        assert np.array_equal(stacked, np.stack([channel_noise(shape, sigma2, family,
                                                               CounterRng(seed))
                                                 for seed in seeds]))

    @pytest.mark.parametrize("shape", [(5, 3), (4, 5, 3)])
    def test_rayleigh_noise_then_one_h_per_row(self, shape):
        rng = CounterRng(13)
        noise = gaussian_noise(shape, 0.3, rng)
        rows = shape[:-1]
        h = draw_fading_coefficients(int(np.prod(rows)), rng).reshape(rows)
        expected = noise / np.maximum(np.abs(h), H_FLOOR)[..., None]
        np.testing.assert_array_equal(
            channel_noise(shape, 0.3, "rayleigh", CounterRng(13)), expected)
