"""Thermal speed statistics and the series probes."""

import io
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from wavebath.lattice import isolated_site_series
from wavebath.statmech import (
    MBParams,
    autocovariance,
    chi2_three_cdf,
    kl_mb,
    ks_chi2_three,
    mb_speed_mean,
    mb_speed_pdf,
    negentropy_mb,
    periodicity_probe,
    sample_mb,
)
from wavebath.statmech import _fft_autocov


class TestSpeedPdf:
    def test_normalizes(self):
        p = MBParams(m=1.4, kT=0.8)
        total, _ = quad(lambda v: mb_speed_pdf(p, v), 0, np.inf)
        assert abs(total - 1.0) < 1e-8

    def test_normalizes_for_random_parameters(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = MBParams(m=float(rng.uniform(0.1, 10)),
                         kT=float(rng.uniform(0.1, 10)))
            total, _ = quad(lambda v: mb_speed_pdf(p, v), 0, np.inf)
            assert abs(total - 1.0) < 1e-8

    def test_mean_kinetic_energy(self):
        p = MBParams(m=2.0, kT=1.3)
        ke, _ = quad(lambda v: 0.5 * p.m * v * v * mb_speed_pdf(p, v),
                     0, np.inf)
        assert ke == pytest.approx(1.5 * p.kT, rel=1e-10)

    def test_mode_location(self):
        p = MBParams(m=3.0, kT=2.0)
        v = np.linspace(0.01, 6.0, 200001)
        v_star = v[np.argmax(mb_speed_pdf(p, v))]
        assert v_star == pytest.approx(math.sqrt(2 * p.kT / p.m), abs=1e-4)

    def test_zero_speed_has_zero_density(self):
        assert mb_speed_pdf(MBParams(1.0, 1.0), 0.0) == 0.0

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            mb_speed_pdf(MBParams(1.0, 1.0), -0.5)

    def test_parameter_validation(self):
        for bad in (dict(m=0.0, kT=1.0), dict(m=1.0, kT=-2.0),
                    dict(m=1.0, kT=1.0, k=0.0), dict(m=np.inf, kT=1.0),
                    dict(m=1.0, kT=np.inf), dict(m=1.0, kT=1.0, k=np.inf),
                    dict(m=1.0, kT=np.nan)):
            with pytest.raises(ValueError):
                MBParams(**bad)


class TestSampler:
    def test_deterministic_stream(self):
        p = MBParams(m=1.0, kT=2.0)
        assert np.array_equal(sample_mb(p, 1000, seed=9),
                              sample_mb(p, 1000, seed=9))

    def test_mean_kinetic_energy(self):
        p = MBParams(m=0.8, kT=1.7)
        v = sample_mb(p, 100_000, seed=31)
        ke = np.mean(0.5 * p.m * v * v)
        assert ke == pytest.approx(1.5 * p.kT, rel=0.02)

    def test_squared_speed_is_chi2_three(self):
        p = MBParams(m=1.0, kT=1.7)
        v = sample_mb(p, 100_000, seed=42)
        stat = kstest(v**2 / p.sigma**2, "chi2", args=(3,)).statistic
        assert stat < 1.628 / math.sqrt(100_000)   # 1% critical value

    @pytest.mark.parametrize("n, seed, kT", [(10, 1, 1.0), (977, 2, 0.4),
                                             (20_000, 3, 1.3),
                                             (100_000, 42, 1.7)])
    def test_ks_statistic_matches_scipy_stats(self, n, seed, kT):
        # the statistic alone: both sides use the package's CDF, which
        # test_chi2_three_cdf_is_exact pins
        p = MBParams(m=1.0, kT=kT)
        x = sample_mb(p, n, seed=seed) ** 2 / p.sigma**2
        expected = kstest(x, chi2_three_cdf).statistic
        assert abs(ks_chi2_three(x) - expected) <= 1e-15

    def test_chi2_three_cdf_is_exact(self):
        # P(3/2, x/2) at 30 digits; both branches, the switch at x = 3,
        # the small-x cancellation and the far tail
        x = np.concatenate([np.linspace(0.0, 60.0, 601),
                            np.linspace(2.9, 3.1, 41), [1e-300, 1e-8, 1e-3]])
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.gammainc(
                1.5, 0, mpmath.mpf(v) / 2, regularized=True)) for v in x])
        assert np.max(np.abs(chi2_three_cdf(x) - exact)) <= 2.5e-16

    def test_chi2_three_cdf_of_negative_argument_is_zero(self):
        assert np.all(chi2_three_cdf([-5.0, -1e-12, 0.0]) == 0.0)

    def test_temperature_scaling_is_exact_for_shared_seed(self):
        # same seed means same underlying normals, so quadrupling kT
        # doubles every speed sample exactly
        cold = sample_mb(MBParams(m=1.0, kT=1.0), 5000, seed=4)
        hot = sample_mb(MBParams(m=1.0, kT=4.0), 5000, seed=4)
        assert np.allclose(hot, 2.0 * cold, rtol=1e-15, atol=0)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_mb(MBParams(1.0, 1.0), 0, seed=1)


class TestDivergence:
    def test_zero_at_equal_temperature(self):
        assert kl_mb(1.7, 1.7) == 0.0

    def test_doubling_value(self):
        assert kl_mb(2.0, 1.0) == pytest.approx(1.5 * (1.0 - math.log(2.0)),
                                                rel=1e-12)

    def test_positive_off_diagonal(self):
        temps = [0.3, 0.9, 1.0, 2.7, 8.0]
        for t0 in temps:
            for t1 in temps:
                d = kl_mb(t0, t1)
                if t0 == t1:
                    assert d == 0.0
                else:
                    assert d > 0.0

    def test_matches_quadrature(self):
        # independent route: integrate p0 log(f0/f1) over speeds
        m, T0, T1 = 1.3, 2.0, 0.7
        p0 = MBParams(m=m, kT=T0)
        a0, a1 = m / (2 * T0), m / (2 * T1)

        def integrand(v):
            log_ratio = 1.5 * math.log(a0 / a1) - (a0 - a1) * v * v
            return mb_speed_pdf(p0, v) * log_ratio

        val, _ = quad(integrand, 0, np.inf)
        assert abs(val - kl_mb(T0, T1)) < 1e-6

    @pytest.mark.parametrize("m, kT", [(1.0, 1.3), (1e-20, 1.0),
                                       (6.6e-26, 4.1e-21)])
    def test_speed_mean_matches_closed_form(self, m, kT):
        # the mb-stats route, down to SI argon at 300 K
        p = MBParams(m=m, kT=kT)
        T0, T1 = kT, 2.0 * kT
        a0, a1 = m / (2 * T0), m / (2 * T1)
        val = mb_speed_mean(p, lambda v: 1.5 * math.log(a0 / a1)
                            - (a0 - a1) * v * v)
        assert abs(val - kl_mb(T0, T1)) < 1e-14
        assert mb_speed_mean(p, lambda v: v * v) == pytest.approx(
            3.0 * kT / m, rel=1e-14)

    def test_rejects_nonpositive_temperatures(self):
        with pytest.raises(ValueError):
            kl_mb(0.0, 1.0)
        with pytest.raises(ValueError):
            kl_mb(1.0, -3.0)


class TestNegentropy:
    def test_matches_gaussian_closed_form(self):
        p = MBParams(m=2.0, kT=1.5, k=1.0)
        closed = -1.5 * math.log(2 * math.pi * math.e * p.kT / p.m)
        assert abs(negentropy_mb(p) - closed) < 1e-8

    @pytest.mark.parametrize("m", [1e-8, 1e-20, 1e8])
    def test_matches_closed_form_far_from_unit_sigma(self, m):
        # sigma = sqrt(kT / m) from 1e-4 to 1e10: the rule runs in units
        # of sigma, so no scale is lost
        p = MBParams(m=m, kT=1.0)
        closed = -1.5 * math.log(2 * math.pi * math.e * p.kT / p.m)
        assert abs(negentropy_mb(p) - closed) < 1e-8

    def test_entropy_scale_is_linear(self):
        base = negentropy_mb(MBParams(m=1.0, kT=1.0, k=1.0))
        scaled = negentropy_mb(MBParams(m=1.0, kT=1.0, k=2.5))
        assert scaled == pytest.approx(2.5 * base, rel=1e-10)

    def test_heating_decreases_order(self):
        values = [negentropy_mb(MBParams(m=1.0, kT=kt)) for kt in
                  (0.25, 0.5, 1.0, 2.0, 4.0, 9.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_doubling_temperature_step(self):
        p1 = MBParams(m=1.0, kT=0.9)
        p2 = MBParams(m=1.0, kT=1.8)
        drop = negentropy_mb(p1) - negentropy_mb(p2)
        assert drop == pytest.approx(1.5 * math.log(2.0), abs=1e-8)


class TestAutocovariance:
    def test_lag_zero_is_sample_variance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(400)
        stats = autocovariance(x, 20)
        assert stats.acov[0] == pytest.approx(np.var(x), rel=1e-12)

    def test_iid_series_stays_in_band(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(4000)
        stats = autocovariance(x, 100)
        inside = np.abs(stats.acov[1:]) <= stats.band
        assert np.mean(inside) >= 0.95

    def test_constant_series_has_zero_autocovariance(self):
        stats = autocovariance(np.full(100, 3.7), 10)
        assert np.allclose(stats.acov, 0.0, atol=1e-24)

    def test_cosine_has_single_spectral_peak(self):
        t = np.arange(2000) * 0.05
        x = np.cos(2 * np.pi * 0.9 * t)
        stats = autocovariance(x, 40, dt=0.05)
        peak_freq = stats.freqs[np.argmax(stats.power)]
        assert peak_freq == pytest.approx(0.9, abs=0.01)
        assert periodicity_probe(x, 0.05) == 1

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            autocovariance(np.ones(40), 10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_series_without_a_windowed_periodogram_rejected(self, n):
        with pytest.raises(ValueError, match="at least 3"):
            autocovariance(np.arange(float(n)), 0)

    def test_lag_grid_uses_dt(self):
        rng = np.random.default_rng(3)
        stats = autocovariance(rng.standard_normal(200), 5, dt=0.25)
        assert np.array_equal(stats.lags, np.arange(6) * 0.25)

    # n = 50: n + max_lag = 72 and 96 are 2^a 3^b lengths, padded to
    # exactly; 73 and 97 sit one above them, 95 one below; 49 = n - 1
    @pytest.mark.parametrize("shape", [(50,), (50, 3)])
    @pytest.mark.parametrize("max_lag", [0, 22, 23, 45, 46, 47, 49])
    def test_fft_matches_direct_sum(self, shape, max_lag):
        x = np.random.default_rng(11).standard_normal(shape)
        n = x.shape[0]
        got = _fft_autocov(x, max_lag)
        centered = x - x.mean(axis=0)
        direct = np.array([np.sum(centered[: n - k] * centered[k:], axis=0)
                           for k in range(max_lag + 1)]) / n
        assert got.shape == direct.shape
        assert np.all(np.abs(got - direct) <= 1e-12 * direct[0])

    def test_csv_exports(self):
        rng = np.random.default_rng(8)
        stats = autocovariance(rng.standard_normal(200), 5, dt=0.5)
        spec_buf = io.StringIO()
        stats.to_spectrum_csv(spec_buf)
        spec_lines = spec_buf.getvalue().splitlines()
        assert spec_lines[0] == "freq,power"
        assert len(spec_lines) == stats.freqs.size + 1
        assert float(spec_lines[2].split(",")[1]) == stats.power[1]


class TestPeriodicityProbe:
    def test_two_tones_count_two(self):
        t = np.arange(4000) * 0.02
        x = np.cos(2 * np.pi * 0.6 * t) + 0.5 * np.sin(2 * np.pi * 1.9 * t)
        assert periodicity_probe(x, 0.02) == 2

    @pytest.mark.parametrize("n_sites", [3, 5, 8])
    def test_isolated_chain_counts_sites(self, n_sites):
        t, p = isolated_site_series(n_sites, 1.0, 400.0, 0.25)
        assert periodicity_probe(p, 0.25) == n_sites

    def test_high_threshold_hides_weak_lines(self):
        _, p = isolated_site_series(8, 1.0, 400.0, 0.25)
        assert periodicity_probe(p, 0.25, threshold=0.2) < 8

    def test_zero_series_has_no_lines(self):
        assert periodicity_probe(np.zeros(100), 0.1) == 0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            periodicity_probe(np.ones(4), 0.1)
        with pytest.raises(ValueError):
            periodicity_probe(np.ones(100), 0.1, threshold=1.5)
