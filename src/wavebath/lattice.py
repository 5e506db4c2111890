"""Harmonic chain with a tagged center particle.

A row of 2M+1 unit masses, nearest-neighbour springs of strength c^2,
ends clamped (Dirichlet truncation of the infinite chain). The center
site plays the role of the observed particle; the rest of the chain is
its heat bath. Everything here is exactly solvable: the truncated
spring matrix has the classical sine eigenbasis with frequencies

    omega_k = 2 c sin(pi k / (2 (n + 1))),   n = 2M + 1,

so time evolution is applied as the exact spectral propagator (an
orthonormal DST-I transform plus per-mode rotation) rather than a
stepping integrator — energy is conserved to roundoff and any residual
seen in finite-difference checks is attributable to the differencing
alone.

The incoming/outgoing wave pair at the center site is defined as

    w    = [c (q_{+1} - q_0) + c (q_{-1} - q_0) + 2 p_0] / 4
    wbar = [c (q_{+1} - q_0) + c (q_{-1} - q_0) - 2 p_0] / 4,

the average of the two one-sided waves. With that choice the center
momentum satisfies the exact first-order identities

    p0' = -2c p0 + 4c w      (forward, stable)
    p0' = +2c p0 + 4c wbar   (backward, antistable)

as algebraic consequences of the equations of motion, not as
approximations; langevin_residual measures how well a sampled trace
honours them, which is pure differencing error O(dt^2).

The hot paths use the closed forms of this basis rather than
re-deriving them numerically:

  * Gibbs draws solve against the closed-form Cholesky factor of the
    second-difference matrix (one banded triangular solve per draw);
  * center-site series sum_k [a_k cos(omega_k t) + b_k sin(omega_k t)]
    on the uniform time grid reuse one block of trig tables: each
    later block of time samples rotates the weights by its start
    phase (angle addition) instead of evaluating fresh trig;
  * the center row of the sine basis, proportional to sin(pi k / 2),
    vanishes on every even mode, so p0 and q0 alone need only the odd
    half of the spectrum (the neighbours q_{-1}, q_{+1} need all of it).

Ensemble runs are pure functions of (config, run index): run r draws
from default_rng([seed, r]) and results are reduced in run order, so
reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dst
from scipy.linalg.lapack import dtbtrs
from scipy.special import j0

from .ratfun import RationalFunction, is_inner
from .waveline import ReflectionWindowError

_CHUNK = 512  # time-block size for the trig + GEMM evaluation path


@dataclass(frozen=True)
class ChainConfig:
    """Geometry, temperature and sampling grid for one chain run.

    Sites are labelled -M..M; beta is the temperature in energy units
    (unit masses, Boltzmann constant absorbed). The guard keeps the run
    inside the window where the clamped ends cannot influence the
    center: disturbances travel at most one site per 1/c time (group
    speed of the dispersion 2c sin(kappa/2) is bounded by c), so the
    guard requires t_max < M/c.
    """

    half_width: int
    c: float
    beta: float
    dt: float
    t_max: float
    seed: int
    guarded: bool = True

    def __post_init__(self):
        if int(self.half_width) != self.half_width or self.half_width < 2:
            raise ValueError("half_width must be an integer >= 2")
        if not 0 < self.c < np.inf:
            raise ValueError("coupling c must be positive and finite")
        if not 0 <= self.beta < np.inf:
            raise ValueError("beta must be nonnegative and finite")
        if not 0 < self.dt <= self.t_max < np.inf:
            raise ValueError("need 0 < dt <= t_max < inf")
        if self.guarded and self.t_max >= self.half_width / self.c:
            raise ReflectionWindowError(
                f"t_max = {self.t_max} reaches the clamped ends; the "
                f"reflection-free window is t < M/c = {self.half_width / self.c}"
            )

    @property
    def n_sites(self):
        return 2 * self.half_width + 1

    @property
    def center(self):
        return self.half_width

    @property
    def n_steps(self):
        return int(np.floor(self.t_max / self.dt + 1e-12))

    @property
    def t_grid(self):
        return np.arange(self.n_steps + 1) * self.dt

    def mode_frequencies(self):
        """omega_k = 2c sin(pi k / (2(n+1))), k = 1..n; all positive."""
        n = self.n_sites
        k = np.arange(1, n + 1)
        return 2.0 * self.c * np.sin(np.pi * k / (2.0 * (n + 1)))


@dataclass(frozen=True, eq=False)
class ChainState:
    """Configurations and momenta over the sites (unit masses)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be equal-length 1-d arrays")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n_sites(self):
        return self.q.size


@dataclass(frozen=True, eq=False)
class ParticleTrace:
    """Center-site series sampled on a uniform grid."""

    t_grid: np.ndarray
    q0: np.ndarray
    p0: np.ndarray
    w: np.ndarray
    w_bar: np.ndarray

    def to_csv(self, fh):
        fh.write("t,q0,p0,w,wbar\n")
        for m in range(self.t_grid.size):
            row = (self.t_grid[m], self.q0[m], self.p0[m],
                   self.w[m], self.w_bar[m])
            fh.write(",".join("%.17g" % x for x in row) + "\n")


def dirichlet_potential(n_sites, c):
    """Spring matrix V^2 of a clamped chain: tridiag(-c^2, 2c^2, -c^2)."""
    V2 = np.zeros((n_sites, n_sites))
    np.fill_diagonal(V2, 2.0 * c * c)
    off = -c * c
    idx = np.arange(n_sites - 1)
    V2[idx, idx + 1] = off
    V2[idx + 1, idx] = off
    return V2


@dataclass(frozen=True)
class FactorStencil:
    """First-difference factor of the spring matrix.

    apply() realizes x_k = c (q_{k+1} - q_k) with the Dirichlet clamp
    q_n = 0, i.e. the upper-bidiagonal square factor; adjoint() is its
    transpose. Their product reproduces every interior row of the
    spring matrix exactly; only the first diagonal entry differs (c^2
    instead of 2c^2), the usual boundary defect of a one-sided factor.
    """

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")

    def apply(self, q):
        q = np.asarray(q, dtype=float)
        x = np.empty_like(q)
        x[:-1] = self.c * (q[1:] - q[:-1])
        x[-1] = -self.c * q[-1]
        return x

    def adjoint(self, x):
        x = np.asarray(x, dtype=float)
        y = np.empty_like(x)
        y[0] = -self.c * x[0]
        y[1:] = self.c * (x[:-1] - x[1:])
        return y

    def matrix(self, n_sites):
        R = np.zeros((n_sites, n_sites))
        np.fill_diagonal(R, -self.c)
        idx = np.arange(n_sites - 1)
        R[idx, idx + 1] = self.c
        return R

    def symbol_coeffs(self):
        """Laurent coefficients of c(z - 1) * c(z^{-1} - 1), z^{-1}..z."""
        return np.array([-self.c**2, 2.0 * self.c**2, -self.c**2])


# ---------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------


def _gibbs_factor(n_sites, c):
    """Upper Cholesky factor R of V^2 = c^2 tridiag(-1, 2, -1), banded.

    Closed form of the LDL^T factorization of the second-difference
    matrix (pivots (k+2)/(k+1), 0-based): R[k, k] = c sqrt((k+2)/(k+1))
    and R[k, k+1] = -c sqrt((k+1)/(k+2)). Row 0 holds the superdiagonal
    (its first entry unused), row 1 the diagonal, as LAPACK's upper
    band storage expects, in Fortran order so that LAPACK takes it
    without a copy.
    """
    j = np.arange(1.0, n_sites + 1)                # j = k + 1
    R = np.zeros((2, n_sites), order="F")
    R[0, 1:] = -c * np.sqrt(j[:-1] / j[1:])
    R[1] = c * np.sqrt((j + 1.0) / j)
    return R


def sample_invariant(cfg: ChainConfig, rng=None) -> ChainState:
    """One draw from the Gibbs measure of the truncated chain.

    Momenta are i.i.d. N(0, beta); configurations have covariance
    beta (V^2)^{-1}, realized by solving R q = sqrt(beta) g against the
    closed-form upper Cholesky factor R of V^2 (V^2 = R^T R). beta = 0
    gives the zero state.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = cfg.n_sites
    if cfg.beta == 0.0:
        return ChainState(np.zeros(n), np.zeros(n))
    root_beta = np.sqrt(cfg.beta)
    p = root_beta * rng.standard_normal(n)
    g = root_beta * rng.standard_normal(n)
    q, info = dtbtrs(_gibbs_factor(n, cfg.c), g)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded triangular solve failed "
                                    f"(LAPACK info = {info})")
    return ChainState(q, p)


def chain_energy(state: ChainState, cfg: ChainConfig):
    """H = 1/2 |p|^2 + 1/2 q^T V^2 q via the banded quadratic form."""
    q, p = state.q, state.p
    c2 = cfg.c**2
    elastic = 2.0 * c2 * (q @ q) - 2.0 * c2 * (q[:-1] @ q[1:])
    return 0.5 * float(p @ p) + 0.5 * float(elastic)


# ---------------------------------------------------------------------
# exact evolution
# ---------------------------------------------------------------------


def _spectral_coeffs(state):
    """Orthonormal DST-I coordinates (the involutive sine transform)."""
    qh = dst(state.q, type=1, norm="ortho")
    ph = dst(state.p, type=1, norm="ortho")
    return qh, ph


def _ensemble_series(dt, n_samples, omega, weight_cos, weight_sin):
    """Evaluate sum_k [Wc cos(omega_k t) + Ws sin(omega_k t)] columns.

    t runs over the uniform grid m dt, m = 0..n_samples-1; weight_* have
    one column per requested series. Time is processed in blocks of
    _CHUNK samples whose accumulation runs as matrix products. The trig
    tables cos(omega tau), sin(omega tau) are built once, for the
    offsets tau of one block; the block starting at t0 instead rotates
    the weights by its start phase (angle addition),

        Wc' = Wc cos(omega t0) + Ws sin(omega t0)
        Ws' = Ws cos(omega t0) - Wc sin(omega t0),

    so its series are cos(omega tau) Wc' + sin(omega tau) Ws'. Trig
    work is _CHUNK n + (n_samples / _CHUNK) n evaluations instead of
    n_samples n.
    """
    block = min(_CHUNK, n_samples)
    phase = np.outer(np.arange(block) * dt, omega)
    cos_tab, sin_tab = np.cos(phase), np.sin(phase)
    out = np.empty((n_samples, weight_cos.shape[1]))
    for lo in range(0, n_samples, block):
        hi = min(lo + block, n_samples)
        start = omega * (lo * dt)
        c0, s0 = np.cos(start)[:, None], np.sin(start)[:, None]
        wc = c0 * weight_cos + s0 * weight_sin
        ws = c0 * weight_sin - s0 * weight_cos
        np.matmul(cos_tab[: hi - lo], wc, out=out[lo:hi])
        out[lo:hi] += sin_tab[: hi - lo] @ ws
    return out


def evolve_state(state: ChainState, cfg: ChainConfig, t) -> ChainState:
    """Exact flow: rotate each sine mode by its own frequency."""
    if state.n_sites != cfg.n_sites:
        raise ValueError("state size does not match config")
    omega = cfg.mode_frequencies()
    qh, ph = _spectral_coeffs(state)
    cwt, swt = np.cos(omega * t), np.sin(omega * t)
    qh_t = qh * cwt + ph / omega * swt
    ph_t = ph * cwt - qh * omega * swt
    return ChainState(dst(qh_t, type=1, norm="ortho"),
                      dst(ph_t, type=1, norm="ortho"))


def integrate(state: ChainState, cfg: ChainConfig) -> ParticleTrace:
    """Sample the center site along the exact flow.

    Only four series are needed (q at the center and its two
    neighbours, p at the center), so instead of reconstructing whole
    states per sample the mode sums are evaluated directly.
    """
    if state.n_sites != cfg.n_sites:
        raise ValueError("state size does not match config")
    n, ctr = cfg.n_sites, cfg.center
    omega = cfg.mode_frequencies()
    qh, ph = _spectral_coeffs(state)
    phi = _site_rows(n, (ctr - 1, ctr, ctr + 1))

    # columns: q_{-1}, q_0, q_{+1}, p_0
    Wc = np.empty((n, 4))
    Ws = np.empty((n, 4))
    for j in range(3):
        Wc[:, j] = phi[j] * qh
        Ws[:, j] = phi[j] * ph / omega
    Wc[:, 3] = phi[1] * ph
    Ws[:, 3] = -phi[1] * qh * omega

    series = _ensemble_series(cfg.dt, cfg.n_steps + 1, omega, Wc, Ws)
    qm, q0, qp, p0 = series.T
    bond_sum = cfg.c * (qp - q0) + cfg.c * (qm - q0)
    w = 0.25 * (bond_sum + 2.0 * p0)
    w_bar = 0.25 * (bond_sum - 2.0 * p0)
    return ParticleTrace(cfg.t_grid, q0.copy(), p0.copy(), w, w_bar)


def _site_rows(n, sites):
    """Rows of the orthonormal sine eigenbasis at the given sites."""
    k = np.arange(1, n + 1)
    scale = np.sqrt(2.0 / (n + 1))
    return [scale * np.sin(np.pi * (j + 1) * k / (n + 1)) for j in sites]


def langevin_residual(trace: ParticleTrace, c):
    """Worst violation of the exact first-order center-site laws.

    Differentiates p0 by central differences and returns the larger of
    the forward and backward identity residuals; for a trace produced
    by integrate this is pure differencing error, O(dt^2).
    """
    t, p0 = trace.t_grid, trace.p0
    if t.size < 3:
        raise ValueError("need at least three samples")
    dt = t[1] - t[0]
    dp = (p0[2:] - p0[:-2]) / (2.0 * dt)
    fwd = dp + 2.0 * c * p0[1:-1] - 4.0 * c * trace.w[1:-1]
    bwd = dp - 2.0 * c * p0[1:-1] - 4.0 * c * trace.w_bar[1:-1]
    return float(max(np.max(np.abs(fwd)), np.max(np.abs(bwd))))


# ---------------------------------------------------------------------
# the 2x2 reduced pair
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SiteModelPair:
    """Forward/backward state models of the center site, plus their quotient.

    Shaped like the coupled pair used for circuit loads, but the
    forward matrix here has an eigenvalue at 0 (the free random-walk
    direction of the position), so it lives outside the strictly
    stable class and carries its own container. Q is the all-pass
    quotient of the backward and forward transfers.
    """

    gamma: np.ndarray
    gamma_bar: np.ndarray
    input_gain: np.ndarray
    Q: RationalFunction

    def __post_init__(self):
        for name in ("gamma", "gamma_bar"):
            m = np.asarray(getattr(self, name), dtype=float)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        g = np.asarray(self.input_gain, dtype=float).reshape(-1)
        g.setflags(write=False)
        object.__setattr__(self, "input_gain", g)
        fwd = np.sort(np.linalg.eigvals(self.gamma))
        bwd = np.sort(np.linalg.eigvals(-self.gamma_bar))
        if not np.allclose(fwd, bwd, rtol=0, atol=1e-12):
            raise ValueError("spectra are not mirror images")
        if not is_inner(self.Q):
            raise ValueError("attached quotient is not inner")


def reduced_models(c) -> SiteModelPair:
    """The 2x2 center-site pair: position integrates momentum, momentum
    relaxes at 2c forward and grows at 2c backward; Q(s) = (s-2c)/(s+2c).
    """
    if not c > 0:
        raise ValueError("c must be positive")
    gamma = np.array([[0.0, 1.0], [0.0, -2.0 * c]])
    gamma_bar = np.array([[0.0, 1.0], [0.0, 2.0 * c]])
    gain = np.array([0.0, 4.0 * c])
    Q = RationalFunction([-2.0 * c, 1.0], [2.0 * c, 1.0])
    return SiteModelPair(gamma, gamma_bar, gain, Q)


# ---------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AutocorrReport:
    """Ensemble momentum autocovariance against the exact symbol integral.

    lags is in time units; empirical and oracle share its grid;
    q_drift[m] is the ensemble variance of q0(t_m) - q0(0), whose
    asymptotically linear growth is the unbounded-position witness.
    """

    lags: np.ndarray
    empirical: np.ndarray
    oracle: np.ndarray
    q_drift: np.ndarray

    def to_csv(self, fh):
        fh.write("lag,empirical,oracle\n")
        for m in range(self.lags.size):
            fh.write("%.17g,%.17g,%.17g\n"
                     % (self.lags[m], self.empirical[m], self.oracle[m]))


def autocov_oracle(c, beta, lags):
    """beta * (1/pi) * integral_0^pi cos(2 c t sin(theta/2)) d theta.

    The symbol integral is the classical closed form beta * J0(2 c t) of
    the infinite harmonic chain (Rubin 1963; Ford, Kac & Mazur 1965).
    """
    return beta * j0(2.0 * c * np.asarray(lags, dtype=float))


def momentum_autocorr(cfg: ChainConfig, n_runs) -> AutocorrReport:
    """Ensemble- and time-averaged E[p0(t) p0(0)] with its exact oracle.

    Run r is sample_invariant(cfg, default_rng([cfg.seed, r])) and
    contributes a biased-normalized time-averaged autocovariance; runs
    are averaged in order. The p0 and q0 series of every run come from
    one trig pass over the odd modes only, the even ones having a node
    at the center. Lags are reported up to half the run length, capped
    at the reflection-free window M/(2c).
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    n, ctr = cfg.n_sites, cfg.center
    # the center row phi0(k) is proportional to sin(pi k / 2): every even
    # mode has a node there, so p0 and q0 are sums over the odd modes
    odd = slice(0, None, 2)                        # k = 1, 3, 5, ...
    omega = cfg.mode_frequencies()[odd]
    phi0 = _site_rows(n, (ctr,))[0][odd]

    # column r holds run r's p0 weights, column n_runs + r its q0 weights
    Wc = np.empty((omega.size, 2 * n_runs))
    Ws = np.empty((omega.size, 2 * n_runs))
    for r in range(n_runs):
        state = sample_invariant(cfg, np.random.default_rng([cfg.seed, r]))
        qh, ph = _spectral_coeffs(state)
        qh, ph = qh[odd], ph[odd]
        Wc[:, r] = phi0 * ph
        Ws[:, r] = -phi0 * qh * omega
        Wc[:, n_runs + r] = phi0 * qh
        Ws[:, n_runs + r] = phi0 * ph / omega

    t = cfg.t_grid
    series = _ensemble_series(cfg.dt, t.size, omega, Wc, Ws)   # (T, 2R)
    p0_runs, q0_runs = series[:, :n_runs], series[:, n_runs:]

    T = t.size
    max_lag = min(T - 1, int(np.floor(cfg.half_width / (2.0 * cfg.c) / cfg.dt)))
    gamma_hat = _mean_autocov(p0_runs, max_lag)
    lags = t[: max_lag + 1]
    oracle = autocov_oracle(cfg.c, cfg.beta, lags)
    drift = np.var(q0_runs[: max_lag + 1] - q0_runs[0], axis=1)
    return AutocorrReport(lags, gamma_hat, oracle, drift)


def _mean_autocov(runs, max_lag):
    """FFT autocovariance (biased normalization) averaged over columns."""
    T, n_runs = runs.shape
    centered = runs - runs.mean(axis=0)
    size = 2 ** int(np.ceil(np.log2(2 * T)))
    spec = np.fft.rfft(centered, n=size, axis=0)
    acov = np.fft.irfft(np.abs(spec) ** 2, n=size, axis=0)[: max_lag + 1]
    return (acov / T).mean(axis=1)


def isolated_site_series(n_sites, c, t_max, dt):
    """End-site momentum of a free clamped chain after an end impulse.

    Every sine mode has nonzero weight at the end site, so the response
    sum_k phi_k(end)^2 cos(omega_k t) carries all n_sites distinct
    frequencies — the cleanest probe for line-counting experiments.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    if not (c > 0 and dt > 0 and t_max >= dt):
        raise ValueError("need c > 0 and 0 < dt <= t_max")
    k = np.arange(1, n_sites + 1)
    weight = (2.0 / (n_sites + 1)) * np.sin(np.pi * k / (n_sites + 1)) ** 2
    omega = 2.0 * c * np.sin(np.pi * k / (2.0 * (n_sites + 1)))
    t = np.arange(int(np.floor(t_max / dt + 1e-12)) + 1) * dt
    p_end = np.cos(np.outer(t, omega)) @ weight
    return t, p_end
