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


def ks_chi2_three(x):
    """Kolmogorov-Smirnov statistic of the sample x against chi^2(3).

    The chi^2(3) CDF is the regularized incomplete gamma P(3/2, x/2);
    the result is scipy.stats.kstest(x, "chi2", args=(3,)).statistic,
    without the import cost of scipy.stats.
    """
    from scipy.special import gammainc   # slow to import; only needed here

    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    cdf = gammainc(1.5, x / 2.0)
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


def negentropy_mb(params: MBParams):
    """k * E[log p(v)] under the thermal state, by adaptive quadrature.

    Integrates the speed marginal against the log of the velocity
    density; decreases strictly as kT grows (heating destroys order).
    """
    from scipy.integrate import quad   # slow to import; only needed here

    val, err = quad(
        lambda v: mb_speed_pdf(params, v) * _log_velocity_density(params, v),
        0.0,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    if err > 1e-8 * max(1.0, abs(val)):
        raise RuntimeError(f"quadrature did not converge (err {err:.3g})")
    return params.k * val


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
    if n <= 4 * max_lag:
        raise ValueError(
            f"series of length {n} too short for max_lag {max_lag} "
            "(need length > 4 * max_lag)"
        )
    centered = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centered, n=size)
    acov = np.fft.irfft(np.abs(spec) ** 2, n=size)[: max_lag + 1] / n
    band = 3.0 * acov[0] / np.sqrt(n)
    freqs, power = _periodogram(centered, dt)
    lags = np.arange(max_lag + 1) * dt
    return SeriesStats(lags, acov, float(band), freqs, power)


def _periodogram(centered, dt):
    """Hann-windowed, zero-padded power spectrum of a centered series."""
    n = centered.size
    window = np.hanning(n)
    padded = n * _PAD_FACTOR
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
