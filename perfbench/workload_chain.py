"""`chain` workload: the harmonic-chain bath and its statistics.

Acceptance-06/07/08/09 sizes: the ensemble momentum autocorrelation
against its exact oracle, Gibbs draws whitened through the difference
stencil, the incoming-wave spectrum, the two-sided Langevin order, the
finite-size periodicity probes and the Maxwell-Boltzmann statistics.
`lattice` and `statmech` do nearly all of the work; `waveline` and
`coupling` do none.

Work unit: trig-table entries T x n x R (time samples x chain sites x
series evaluated) of every `momentum_autocorr` and `integrate` call.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc

from wavebath import lattice, statmech

UNIT = "T*n*R entries"

SIZES = {
    "full": {"M": 2000, "runs": 200, "t_max": 1900.0, "draws": 4000,
             "langevin_t": 40.0, "bath_t": 400.0, "mb_n": 100_000,
             "max_lag": 400},
    "tiny": {"M": 60, "runs": 20, "t_max": 25.0, "draws": 300,
             "langevin_t": 10.0, "bath_t": 50.0, "mb_n": 10_000,
             "max_lag": 20},
}
BETA, C = 1.3, 1.0                  # acceptance 07
LANGEVIN_C = 1.3                    # acceptance 06
MB_KT = 1.3                         # acceptance 08
ISOLATED_SITES = range(3, 9)        # acceptance 09


def _ks_chi2_3(x):
    """Kolmogorov-Smirnov statistic of `x` against chi-square, 3 dof.

    Computed here rather than with `scipy.stats.kstest`, whose import
    would add to this workload's set-up a module the library never
    loads; `scipy.special` is loaded with `wavebath.statmech` anyway.
    """
    x = np.sort(x)
    cdf = gammainc(1.5, x / 2.0)          # chi-square(3) CDF
    n = x.size
    return max(float(np.max(np.arange(1, n + 1) / n - cdf)),
               float(np.max(cdf - np.arange(n) / n)))


def _entries(cfg, series):
    return (cfg.n_steps + 1) * cfg.n_sites * series


def build(seed, size):
    p = SIZES[size]
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=6)
    return {
        "size": p,
        "autocorr": lattice.ChainConfig(half_width=p["M"], c=C, beta=BETA,
                                        dt=0.25, t_max=p["t_max"],
                                        seed=int(seeds[0])),
        "draw_seed": int(seeds[1]),
        "langevin": [lattice.ChainConfig(half_width=p["M"], c=LANGEVIN_C,
                                         beta=1.0, dt=dt,
                                         t_max=p["langevin_t"],
                                         seed=int(seeds[2]))
                     for dt in (0.1, 0.05)],
        "bath": lattice.ChainConfig(half_width=p["M"], c=1.0, beta=1.0,
                                    dt=0.25, t_max=p["bath_t"],
                                    seed=int(seeds[3])),
        "mb": statmech.MBParams(m=1.0, kT=MB_KT),
        "mb_seed": int(seeds[4]),
    }


def run_pass(inputs, ops):
    cfg = inputs["autocorr"]
    size = inputs["size"]
    with ops.op("autocorr", work=_entries(cfg, size["runs"])) as op:
        rep = lattice.momentum_autocorr(cfg, size["runs"])
        op.below("p0 variance", abs(rep.empirical[0] - BETA) / BETA, 0.02)
        op.below("oracle deviation",
                 float(np.max(np.abs(rep.empirical - rep.oracle))) / BETA,
                 0.05)

    with ops.op("whitening") as op:
        rng = np.random.default_rng(inputs["draw_seed"])
        stencil = lattice.FactorStencil(C)
        n_samp = size["draws"]
        draws = np.empty((n_samp, cfg.n_sites))
        for i in range(n_samp):
            draws[i] = stencil.apply(lattice.sample_invariant(cfg, rng).q)
        cov = np.cov(draws, rowvar=False) / BETA
        del draws
        band = 3.0 / math.sqrt(n_samp)
        in_band = float(np.mean(np.abs(cov - np.eye(cfg.n_sites)) <= band))
        op.at_least("whitening in band", in_band, 0.99)
        op.below("whitening diagonal",
                 abs(float(np.mean(np.diag(cov))) - 1.0), 0.003)

    # the incoming-wave spectrum is reported by acceptance 07, never
    # asserted; only its finiteness is checked here
    with ops.op("w_spectrum", work=_entries(cfg, 4)) as op:
        trace = lattice.integrate(lattice.sample_invariant(cfg), cfg)
        peaks = statmech.periodicity_probe(trace.w, cfg.dt, threshold=0.005)
        stats = statmech.autocovariance(trace.w, max_lag=size["max_lag"],
                                        dt=cfg.dt)
        op.check("w spectrum finite", peaks >= 0 and bool(
            np.all(np.isfinite(stats.power))))

    full, half = inputs["langevin"]
    with ops.op("langevin", work=_entries(full, 4) + _entries(half, 4)) as op:
        state = lattice.sample_invariant(full)
        res_full = lattice.langevin_residual(lattice.integrate(state, full),
                                             LANGEVIN_C)
        res_half = lattice.langevin_residual(lattice.integrate(state, half),
                                             LANGEVIN_C)
        op.at_least("Langevin order", math.log2(res_full / res_half), 1.9)

    bath = inputs["bath"]
    with ops.op("periodicity", work=_entries(bath, 4)) as op:
        for n_sites in ISOLATED_SITES:
            _, series = lattice.isolated_site_series(n_sites, 1.0, 400.0,
                                                     0.25)
            count = statmech.periodicity_probe(series, 0.25, threshold=0.005)
            op.check(f"{n_sites}-site line count", count == n_sites,
                     f"({count} lines)")
        trace = lattice.integrate(lattice.sample_invariant(bath), bath)
        statmech.periodicity_probe(trace.p0, 0.25, threshold=0.005)

    with ops.op("maxwell_boltzmann") as op:
        mb = inputs["mb"]
        n = size["mb_n"]
        v = statmech.sample_mb(mb, n, seed=inputs["mb_seed"])
        ke = float(np.mean(0.5 * mb.m * v * v))
        op.below("kinetic energy", abs(ke - 1.5 * mb.kT) / (1.5 * mb.kT),
                 0.02)
        op.below("KS statistic",
                 _ks_chi2_3(v**2 / mb.sigma**2),
                 1.628 / math.sqrt(n))
        kl_gap = 0.0
        for t0, t1 in ((1.0, 2.0), (0.7, 1.3), (2.5, 0.4)):
            p0 = statmech.MBParams(m=1.0, kT=t0)
            a0, a1 = 1.0 / (2.0 * t0), 1.0 / (2.0 * t1)
            val, _ = quad(
                lambda s: statmech.mb_speed_pdf(p0, s)
                * (1.5 * math.log(a0 / a1) - (a0 - a1) * s * s),
                0.0, np.inf,
            )
            kl_gap = max(kl_gap, abs(val - statmech.kl_mb(t0, t1)))
        op.below("divergence closed form vs quadrature", kl_gap, 1e-6)
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        op.check("divergence positive off the diagonal",
                 min(statmech.kl_mb(a, b) for a in grid for b in grid
                     if a != b) > 0.0)
        op.check("divergence zero on the diagonal",
                 max(abs(statmech.kl_mb(a, a)) for a in grid) == 0.0)
