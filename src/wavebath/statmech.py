"""Velocity statistics, divergences, and series probes.

The speed of a gas molecule with Gaussian velocity components has the
classical squared-speed chi^2(3) law; this module carries that
distribution (density, sampler, moments, KS statistic), the
Kullback-Leibler divergence and neg-entropy between thermal states, and
the signal estimators (autocovariance, periodogram, spectral-line
counting) used by the chain and line experiments to tell an honest
finite system from its thermodynamic-limit idealization.

Neg-entropy follows the storage-function sign convention
H = k * E[log p]: larger means more ordered, and heating strictly
decreases it. The density inside the log is the full three-component
velocity Gaussian (the quantity the entropy argument differentiates),
integrated over speed where the samples live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv


@dataclass(frozen=True)
class MBParams:
    """Thermal state of unit-count ideal gas: mass, temperature, and the
    entropy scale k (symbolic Boltzmann constant, default 1)."""

    m: float
    kT: float
    k: float = 1.0

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.m, self.kT, self.k)):
            raise ValueError("m, kT and k must all be positive and finite")
        try:
            norm = self.speed_norm
        except OverflowError:
            norm = math.inf
        if not 0 < norm < math.inf:
            raise ValueError(
                f"m/kT = {self.m / self.kT:.3g} is out of range: the speed "
                "density's normalisation is not a positive finite float")

    @property
    def speed_norm(self):
        """The speed density's normalisation 4 pi (m / 2 pi kT)^{3/2}."""
        a = self.m / (2.0 * self.kT)
        return 4.0 * math.pi * (a / math.pi) ** 1.5

    @property
    def sigma(self):
        """Per-component velocity standard deviation sqrt(kT/m)."""
        return math.sqrt(self.kT / self.m)


def mb_speed_pdf(params: MBParams, v):
    """Speed density 4 pi (m / 2 pi kT)^{3/2} v^2 exp(-m v^2 / 2 kT)."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("speeds are nonnegative")
    a = params.m / (2.0 * params.kT)
    out = params.speed_norm * v * v * np.exp(-a * v * v)
    return float(out) if out.ndim == 0 else out


def sample_mb(params: MBParams, n, seed):
    """n speed draws: sigma times the norm of three standard normals."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    comps = rng.standard_normal((int(n), 3))
    return params.sigma * np.linalg.norm(comps, axis=1)


def chi2_three_cdf(x):
    """The chi^2(3) CDF P(3/2, x/2) = erf(y) - sqrt(2x/pi) exp(-x/2),
    y = sqrt(x/2) (integrate the density by parts once).

    From x = 3 on, where the CDF passes 0.6, it is evaluated as
    1 - (erfc(y) + sqrt(2x/pi) exp(-x/2)): the small terms keep their
    relative precision and only the last subtraction rounds near 1. Both
    branches are within 1.5e-16 of the exact value. Negative x has
    probability 0.
    """
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    y = np.sqrt(0.5 * x)
    tail = np.sqrt(2.0 * x / math.pi) * np.exp(-0.5 * x)
    upper = x >= 3.0
    out = np.empty(x.shape)
    out[~upper] = _map(math.erf, y[~upper]) - tail[~upper]
    out[upper] = 1.0 - (_map(math.erfc, y[upper]) + tail[upper])
    return out


def _map(f, x):
    """The float function f applied to each entry of a 1-d array."""
    return np.fromiter(map(f, x), dtype=float, count=x.size)


def ks_chi2_three(x):
    """Kolmogorov-Smirnov statistic of the sample x against chi^2(3).

    The same statistic as scipy.stats.kstest(x, chi2_three_cdf), without
    the import cost of scipy.stats.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    cdf = chi2_three_cdf(x)
    return max(float(np.max(np.arange(1, n + 1) / n - cdf)),
               float(np.max(cdf - np.arange(n) / n)))


def _log_velocity_density(params, v):
    """log of the three-component velocity Gaussian at speed v."""
    a = params.m / (2.0 * params.kT)
    return 1.5 * math.log(a / math.pi) - a * v * v


def kl_mb(T0, T1):
    """Divergence between thermal velocity distributions at T0 and T1.

    Closed form (3/2)(r - 1 - ln r) with r = T0/T1: three independent
    Gaussian components, each contributing (r - 1 - ln r)/2. Zero only
    at equal temperatures, positive otherwise.
    """
    if not (T0 > 0 and T1 > 0):
        raise ValueError("temperatures must be positive")
    r = T0 / T1
    return 1.5 * (r - 1.0 - math.log(r))


_HERMITE_NODES = 6


def mb_speed_mean(params: MBParams, g):
    """E[g(v)] under the thermal speed law, by half a Gauss-Hermite rule.

    In u = v / (sqrt(2) sigma) the speed density is
    (4 / sqrt(pi)) u^2 exp(-u^2) on u >= 0, whatever m and kT. The
    integrand is even in u, so the positive nodes of the
    _HERMITE_NODES-point Gauss-Hermite rule integrate it exactly when g
    is a polynomial in v^2 of degree <= _HERMITE_NODES - 2. The weights
    are normalised to sum to 1, the value the rule gives g = 1 in exact
    arithmetic. g takes an array of speeds.
    """
    u, w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    u, w = u[_HERMITE_NODES // 2:], w[_HERMITE_NODES // 2:]
    p = w * u * u
    v = math.sqrt(2.0) * params.sigma * u
    return float(p @ g(v)) / float(p.sum())


def negentropy_mb(params: MBParams):
    """k * E[log p(v)] under the thermal state, by Gauss-Hermite quadrature.

    log p is quadratic in v (_log_velocity_density), so mb_speed_mean is
    exact for it at every m and kT; the closed form it reproduces is
    -(3/2) k log(2 pi e kT / m). Decreases strictly as kT grows (heating
    destroys order).
    """
    return params.k * mb_speed_mean(
        params, lambda v: _log_velocity_density(params, v))


# ---------------------------------------------------------------------
# series estimators
# ---------------------------------------------------------------------

_PAD_FACTOR = 8


@dataclass(frozen=True, eq=False)
class SeriesStats:
    """Autocovariance and spectrum of one uniformly sampled series.

    band is the flat +-3 gamma(0)/sqrt(n) whiteness band: under an
    i.i.d. null every nonzero-lag estimate falls inside it with
    probability ~99.7%. freqs are in cycles per unit time of the dt
    supplied to the estimator; power is the Hann-windowed, zero-padded
    periodogram.
    """

    lags: np.ndarray
    acov: np.ndarray
    band: float
    freqs: np.ndarray
    power: np.ndarray

    def to_acov_csv(self, fh):
        write_csv(fh, "lag,acov,band",
                  (self.lags, self.acov, np.full(self.lags.size, self.band)))

    def to_spectrum_csv(self, fh):
        write_csv(fh, "freq,power", (self.freqs, self.power))


def autocovariance(series, max_lag, dt=1.0) -> SeriesStats:
    """Biased autocovariance up to max_lag plus a windowed periodogram.

    The biased (1/n) normalization keeps the estimate a valid
    covariance sequence; lag 0 equals the sample variance exactly.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = x.size
    if n < 3:
        # the Hann window of two samples is all zeros
        raise ValueError(f"series of {n} samples is too short for a "
                         "windowed periodogram (need at least 3)")
    if n <= 4 * max_lag:
        raise ValueError(
            f"series of length {n} too short for max_lag {max_lag} "
            "(need length > 4 * max_lag)"
        )
    acov = _fft_autocov(x, max_lag)
    band = 3.0 * acov[0] / np.sqrt(n)
    freqs, power = _periodogram(x - x.mean(), dt)
    lags = np.arange(max_lag + 1) * dt
    return SeriesStats(lags, acov, float(band), freqs, power)


def _fft_length(n):
    """Smallest 2^a 3^b >= n: an FFT length of radix-2 and -3 passes only."""
    best, power3 = 1 << (n - 1).bit_length(), 1
    while power3 < best:
        need = -(-n // power3)                     # ceil(n / 3^b)
        best = min(best, power3 << (need - 1).bit_length())
        power3 *= 3
    return best


def _fft_autocov(x, max_lag):
    """Biased (1/n) autocovariance of x along axis 0, lags 0..max_lag.

    The series are centered and transposed once, so each transform runs
    along a contiguous row. Each is zero-padded to the smallest 2^a 3^b
    length at least n + max_lag: circular lag k also picks up linear
    lag k - length, which is at most -n, beyond the series, for
    k <= max_lag, so the FFT's circular correlation is the linear one
    up to max_lag.
    """
    n = x.shape[0]
    centered = x.T.copy()
    centered -= centered.mean(axis=-1, keepdims=True)
    size = _fft_length(n + max_lag)
    spec = np.fft.rfft(centered, n=size)
    power = spec.real ** 2 + spec.imag ** 2
    return np.fft.irfft(power, n=size)[..., : max_lag + 1].T / n


def _periodogram(centered, dt):
    """Hann-windowed power spectrum of a centered series, zero-padded to
    the smallest 2^a 3^b length at least _PAD_FACTOR n (a prime length
    would send the FFT down its slow Bluestein path)."""
    n = centered.size
    window = np.hanning(n)
    padded = _fft_length(_PAD_FACTOR * n)
    spec = np.fft.rfft(centered * window, n=padded)
    power = np.abs(spec) ** 2 / (window @ window)
    freqs = np.fft.rfftfreq(padded, d=dt)
    return freqs, power


def periodicity_probe(series, dt, threshold=0.005):
    """Count distinct spectral lines above threshold * peak power.

    A line is a strict local maximum of the periodogram; maxima closer
    than two bins are merged into their larger member. A finite free
    system shows finitely many lines (it must cycle); a genuine bath
    run shows a broadband forest instead — the count is the witness.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 8:
        raise ValueError("series must be 1-d with at least 8 samples")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    _, power = _periodogram(x - x.mean(), dt)
    peak = power.max()
    if peak == 0.0:
        return 0
    inner = power[1:-1]
    is_max = (inner > power[:-2]) & (inner >= power[2:])
    idx = np.nonzero(is_max & (inner >= threshold * peak))[0] + 1
    if idx.size == 0:
        return 0
    # merge near-coincident maxima, keeping the stronger of each pair
    kept = [idx[0]]
    for i in idx[1:]:
        if i - kept[-1] <= 2:
            if power[i] > power[kept[-1]]:
                kept[-1] = i
        else:
            kept.append(i)
    return len(kept)
