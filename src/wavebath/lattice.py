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

  * Gibbs draws back-substitute against the closed-form Cholesky
    factor of the second-difference matrix, which telescopes to one
    reversed cumulative sum per draw;
  * the orthonormal DST-I is one real FFT of the odd extension;
  * every series sum_k [a_k cos(omega_k t) + b_k sin(omega_k t)] on the
    uniform time grid (center-site traces, the ensemble, the isolated
    chain and the J0 oracle) goes through _trig_kernel, which reuses
    one half-block of trig tables: each block of time samples rotates
    the weights by the phase of its middle sample (angle addition)
    instead of evaluating fresh trig, and serves the samples on both
    sides of the middle from the same table rows, cos being even and
    sin odd;
  * the center row of the sine basis, proportional to sin(pi k / 2),
    vanishes on every even mode, so p0 and q0 alone need only the odd
    half of the spectrum (the neighbours q_{-1}, q_{+1} need all of it).

Ensemble runs are pure functions of (config, run index): run r draws
from default_rng([seed, r]) and results are reduced in run order, so
reports are reproducible bit for bit. The ensemble is evaluated in
blocks of at most _RUN_BLOCK runs, so its memory is one block's and
the trig tables', plus the q0 series it keeps, whatever the run count.

Everything here runs on numpy alone. The autocovariance oracle's J0 is
Bessel's integral under a midpoint rule sized from its largest
argument, not a library special function; the rule is a cosine series
in t with one frequency per node, so the same trig kernel evaluates it.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from ._errors import ReflectionWindowError

_CHUNK = 512  # cap on the half-width h of a 2h + 1 sample trig-GEMM block
_STACK = 3 << 17  # entries (3 MB) of one trig-GEMM's weights and products
_RUN_BLOCK = 16  # runs that momentum_autocorr draws and evaluates together

# Longest chain grid. integrate peaks at 80 bytes per sample (tracemalloc)
# and keeps 40: 160 MB at the limit. lattice-sim's half step stops its own
# grid at 1e6 samples, about 200 MB. Acceptance 07's 7601 samples and the
# README's largest grid (lattice-sim's 4001-sample half step) pass.
MAX_SAMPLES = 2_000_000

# Largest momentum_autocorr ensemble, in runs x (samples + sites). Only
# the kept q0 series, 8 bytes per run and lag (lags <= samples), grow with
# the run count. The rest is one block of _RUN_BLOCK runs or fewer, 8
# bytes per run and sample for its p0 series, 40 per run and transform
# sample for their FFTs (tracemalloc reads 33-36; the transform is 1.5 to
# 2.7 times the samples) and 16 per run and site for its weights, plus
# 200 per site for one draw, 16 (h + 1) per odd mode for the trig tables
# (h = _half_width(samples, block)) and 8 _STACK for a trig-GEMM.
# Acceptance 07 (200 runs of 7601 samples and 4001 sites, 2.3e6) peaks at
# 26.6 MB under tracemalloc, 86% of this model, and the README's autocorr
# (160 runs of 1521 samples and 801 sites) at 4.9 MB. With a block's runs
# x transform samples capped at MAX_BLOCK_FFT the model reaches about
# 165 MB at the limit (14 runs of 2.6e5 samples on the longest chain, in
# blocks of 2, lags to the grid's end), half of it the trig tables.
MAX_RUN_ENTRIES = 4_000_000
# Runs x transform samples of one momentum_autocorr block: 40 MB of FFTs.
# A block holds fewer than _RUN_BLOCK runs when their transforms are long,
# and one run whose transform alone is longer is refused. Acceptance 07's
# blocks (16 x 11664) and the README's (16 x 2592) are under it.
MAX_BLOCK_FFT = 1 << 20

# Longest chain, in sites 2M + 1. On a short grid a site costs about 600
# bytes (the Gibbs draw, its sine transforms, integrate's mode weights);
# on a long one _trig_kernel's tables add 16 (_CHUNK + 1) bytes, and its
# stacked products at most 8 _STACK in all. lattice-sim with t_max = M - 1
# peaks at 12.8 and 10.1 KB per site at M = 2000 and 4000 (tracemalloc),
# so about 200 MB at the limit, M = 10000.
# Acceptance 07's and the README's chains (M = 2000 and 400) pass.
MAX_SITES = 20_001


def _grid_samples(dt, t_max):
    """Sample count floor(t_max / dt + 1e-12) + 1 of the grid m dt; refuses,
    before any allocation, an empty grid or one past MAX_SAMPLES."""
    if not 0 < dt <= t_max < np.inf:
        raise ValueError("need 0 < dt <= t_max < inf")
    steps = t_max / dt + 1e-12
    if steps >= MAX_SAMPLES:
        raise ValueError(f"t_max = {t_max} over dt = {dt} is a grid of "
                         f"{steps + 1:.4g} samples; at most {MAX_SAMPLES} "
                         "are allowed")
    return int(steps) + 1


def _mode_frequencies(n, c):
    """omega_k = 2c sin(pi k / (2(n+1))), k = 1..n, of n clamped sites."""
    k = np.arange(1, n + 1)
    return 2.0 * c * np.sin(np.pi * k / (2.0 * (n + 1)))


@dataclass(frozen=True)
class ChainConfig:
    """Geometry, temperature and sampling grid for one chain run.

    Sites are labelled -M..M; beta is the temperature in energy units
    (unit masses, Boltzmann constant absorbed). The guard keeps the run
    inside the window where the clamped ends cannot influence the
    center: disturbances travel at most one site per 1/c time (group
    speed of the dispersion 2c sin(kappa/2) is bounded by c), so the
    guard requires t_max < M/c. The grid holds from 3 samples, the least
    the Langevin residual and the wave spectrum take, to MAX_SAMPLES,
    and the chain at most MAX_SITES sites.
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
        if self.n_sites > MAX_SITES:
            raise ValueError(
                f"M = {self.half_width} is a chain of {self.n_sites} sites; "
                f"at most {MAX_SITES} (M = {MAX_SITES // 2}) are allowed")
        # c and c*c tested apart: c*c alone admits c < 0
        if not (self.c > 0 and 0 < self.c * self.c < np.inf):
            raise ValueError("coupling c must be positive, with c*c a "
                             f"positive finite float; got c = {self.c}")
        if not 0 <= self.beta < np.inf:
            raise ValueError("beta must be nonnegative and finite")
        if _grid_samples(self.dt, self.t_max) < 3:
            raise ValueError(
                f"t_max = {self.t_max} holds one step of dt = {self.dt}; "
                "a chain run needs at least 3 samples")
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
        return _grid_samples(self.dt, self.t_max) - 1

    @property
    def t_grid(self):
        return np.arange(self.n_steps + 1) * self.dt

    def mode_frequencies(self):
        """omega_k = 2c sin(pi k / (2(n+1))), k = 1..n; all positive."""
        return _mode_frequencies(self.n_sites, self.c)


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
        write_csv(fh, "t,q0,p0,w,wbar",
                  (self.t_grid, self.q0, self.p0, self.w, self.w_bar))


@dataclass(frozen=True)
class FactorStencil:
    """First-difference factor of the spring matrix.

    apply() realizes x_k = c (q_{k+1} - q_k) with the Dirichlet clamp
    q_n = 0, i.e. the upper-bidiagonal square factor R. R^T R reproduces
    every interior row of the spring matrix exactly; only the first
    diagonal entry differs (c^2 instead of 2c^2), the usual boundary
    defect of a one-sided factor.
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


# ---------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------


def sample_invariant(cfg: ChainConfig, rng=None) -> ChainState:
    """One draw from the Gibbs measure of the truncated chain.

    Momenta are i.i.d. N(0, beta); configurations have covariance
    beta (V^2)^{-1}, realized by solving R q = sqrt(beta) g against the
    upper Cholesky factor R of V^2 = c^2 tridiag(-1, 2, -1) (V^2 = R^T R).
    R has the closed form R[k, k] = c sqrt((k+2)/(k+1)),
    R[k, k+1] = -c sqrt((k+1)/(k+2)) (0-based; the pivots of the
    second-difference matrix), and back-substitution against it
    telescopes to one reversed cumulative sum,

        q_k = ((k+1)/c) sum_{j>=k} g_j / sqrt((j+1)(j+2)).

    beta = 0 gives the zero state.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = cfg.n_sites
    if cfg.beta == 0.0:
        return ChainState(np.zeros(n), np.zeros(n))
    root_beta = np.sqrt(cfg.beta)
    p = root_beta * rng.standard_normal(n)
    g = root_beta * rng.standard_normal(n)
    j = np.arange(1.0, n + 1)                      # j = k + 1
    tail = np.cumsum((g / np.sqrt(j * (j + 1.0)))[::-1])[::-1]
    return ChainState(j / cfg.c * tail, p)


def chain_energy(state: ChainState, cfg: ChainConfig):
    """H = 1/2 |p|^2 + 1/2 q^T V^2 q via the banded quadratic form."""
    q, p = state.q, state.p
    c2 = cfg.c**2
    elastic = 2.0 * c2 * (q @ q) - 2.0 * c2 * (q[:-1] @ q[1:])
    return 0.5 * float(p @ p) + 0.5 * float(elastic)


# ---------------------------------------------------------------------
# exact evolution
# ---------------------------------------------------------------------


def _dst1(x):
    """Orthonormal DST-I along the last axis (its own inverse).

    The odd extension [0, x, 0, -x reversed] of length 2(n+1) has a
    purely imaginary DFT whose bins 1..n are -sqrt(2(n+1)) times the
    sine coefficients, so one real FFT gives the transform; this is how
    pocketfft, behind both numpy.fft and scipy.fft, computes it. Rows
    are transformed by one call, each bitwise as it would be alone.
    """
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    return -np.fft.rfft(ext, norm="ortho").imag[..., 1 : n + 1]


def _spectral_coeffs(state):
    """Orthonormal DST-I coordinates (the involutive sine transform).

    q and p go through one transform of their stacked rows. At
    autocorr's 801 sites the odd extension is 1604 = 4 x 401 samples,
    which pocketfft computes by Bluestein's algorithm; 160 states took
    23 ms this way against 37 ms one row at a time (numpy 2.4.6, one
    pinned CPU). Across states nothing is stacked: the blocks' larger
    buffers would cross glibc's mmap threshold and move the chain's
    peak memory.
    """
    return _dst1(np.stack((state.q, state.p)))


def _half_width(n_samples, n_series):
    """Trig-table half-width h = min(_CHUNK, isqrt(n_samples n_series),
    (n_samples - 1) // 2), sized so that short runs of few series build
    no more table than they use."""
    return min(_CHUNK, math.isqrt(n_samples * n_series), (n_samples - 1) // 2)


def _trig_kernel(dt, omega, half):
    """Trig tables of half-width h and the series evaluator that uses them.

    The returned series(n_samples, weight_cos, weight_sin, out) writes
    sum_k [Wc cos(omega_k t) + Ws sin(omega_k t)] into out, one column
    per column of weight_*, for t on the uniform grid m dt, m =
    0..n_samples-1. Time is processed in blocks of 2h + 1 samples around
    a middle sample m, whose accumulation runs as matrix products. The
    tables cos(omega tau), sin(omega tau) are built once, here, for the
    offsets tau = j dt, j = 0..h, and serve every call; the block around
    t_m = m dt instead rotates the weights by its middle phase (angle
    addition),

        Wc' = Wc cos(omega t_m) + Ws sin(omega t_m)
        Ws' = Ws cos(omega t_m) - Wc sin(omega t_m),

    and forms C = cos(omega tau) Wc', S = sin(omega tau) Ws'. cos is
    even and sin odd, so one pair of (h + 1)-row products serves both
    sides of the middle:

        out[m + j] = C_j + S_j,    out[m - j] = C_j - S_j.

    The rotated weights of several time blocks sit side by side, so a
    call of few series still makes wide products (one OpenBLAS thread
    runs a 513 x 2001 table at 35 GF/s over 16 columns and 65 over
    200); the stacked weights and the two products hold at most _STACK
    entries. Trig work is (h + 1) n + n_samples n / (2h + 1)
    evaluations instead of n_samples n, and the products take about
    n_samples table rows in all instead of 2 n_samples.
    """
    n = omega.size
    phase = np.outer(np.arange(half + 1) * dt, omega)
    cos_tab = np.cos(phase)
    sin_tab = np.sin(phase, out=phase)  # two tables live, not three
    span = 2 * half + 1

    def series(n_samples, weight_cos, weight_sin, out):
        n_series = weight_cos.shape[1]
        blocks = []                         # (first sample, back, fwd)
        for lo in range(0, n_samples, span):
            # a partial last block is split about its own middle
            size = min(span, n_samples - lo)
            blocks.append((lo, (size - 1) // 2, size - (size - 1) // 2))
        side = max(1, min(len(blocks),
                          _STACK // ((n + 2 * (half + 1)) * n_series)))
        # one row per series of each block, so the rotation runs along
        # the modes; its transpose is the product's operand
        stacked = np.empty((side * n_series, n))
        even, odd = np.empty((2, half + 1, side * n_series))
        for first in range(0, len(blocks), side):
            group = blocks[first:first + side]
            rows = max(fwd for _, _, fwd in group)
            width = len(group) * n_series
            mid_phase = np.outer([(lo + back) * dt for lo, back, _ in group],
                                 omega)
            c0 = np.cos(mid_phase)
            s0 = np.sin(mid_phase, out=mid_phase)
            # Wc' and then Ws' of every block of the group, side by side
            for table, result, w1, w2, combine in (
                    (cos_tab, even, weight_cos.T, weight_sin.T, np.add),
                    (sin_tab, odd, weight_sin.T, weight_cos.T, np.subtract)):
                for i in range(len(group)):
                    part = stacked[i * n_series:(i + 1) * n_series]
                    np.multiply(c0[i], w1, out=part)
                    combine(part, s0[i] * w2, out=part)
                np.matmul(table[:rows], stacked[:width].T,
                          out=result[:rows, :width])
            for i, (lo, back, fwd) in enumerate(group):
                cols = slice(i * n_series, (i + 1) * n_series)
                mid = lo + back
                np.add(even[:fwd, cols], odd[:fwd, cols],
                       out=out[mid:mid + fwd])
                np.subtract(even[back:0:-1, cols], odd[back:0:-1, cols],
                            out=out[lo:mid])
        return out

    return series


def _ensemble_series(dt, n_samples, omega, weight_cos, weight_sin):
    """sum_k [Wc cos(omega_k t) + Ws sin(omega_k t)], one column per
    column of weight_*, on t = m dt, m = 0..n_samples-1, by _trig_kernel
    with tables sized for this one call."""
    n_series = weight_cos.shape[1]
    series = _trig_kernel(dt, omega, _half_width(n_samples, n_series))
    return series(n_samples, weight_cos, weight_sin,
                  np.empty((n_samples, n_series)))


def evolve_state(state: ChainState, cfg: ChainConfig, t) -> ChainState:
    """Exact flow: rotate each sine mode by its own frequency."""
    if state.n_sites != cfg.n_sites:
        raise ValueError("state size does not match config")
    omega = cfg.mode_frequencies()
    qh, ph = _spectral_coeffs(state)
    cwt, swt = np.cos(omega * t), np.sin(omega * t)
    qh_t = qh * cwt + ph / omega * swt
    ph_t = ph * cwt - qh * omega * swt
    q, p = _dst1(np.stack((qh_t, ph_t)))
    return ChainState(q, p)


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
        from .ratfun import is_inner

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
    from .ratfun import RationalFunction

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
        write_csv(fh, "lag,empirical,oracle",
                  (self.lags, self.empirical, self.oracle))


def _j0_nodes(x_max):
    """Even midpoint node count for J0 on [0, x_max] to roundoff.

    The N-node rule's only error is aliasing, 2 sum_k (-1)^k J_{2kN}(x),
    and J_nu(x) decays past nu = x over a transition a few x^{1/3} wide:
    2N = x_max + 12 x_max^{1/3} + 32 puts every aliased order far beyond
    it (error about 4e-14 against scipy.special.j0 up to x = 2e4). The
    floor of 16 covers small and zero arguments.
    """
    n = math.ceil(x_max / 2.0 + 6.0 * x_max ** (1.0 / 3.0) + 16.0)
    return n + n % 2


def autocov_oracle(c, beta, dt, n_lags):
    """beta * J0(2 c t) on the lag grid t = m dt, m = 0..n_lags-1: the
    classical closed form of the infinite chain (Rubin 1963; Ford, Kac &
    Mazur 1965).

    J0 is Bessel's integral J0(x) = (1/pi) integral_0^pi cos(x sin theta)
    d theta (Watson, Bessel Functions, sec. 2.2). Its integrand is periodic
    and analytic, so the midpoint rule converges geometrically once the
    node count passes x/2; _j0_nodes sizes it from the largest lag. The
    integrand is symmetric about pi/2, so the rule is a mean over the
    nodes s_k = sin theta_k in [0, pi/2]: a cosine series in t with
    frequencies 2 c s_k and equal weights, which _ensemble_series
    evaluates like every other series on a uniform grid. Lag 0 is set
    to J0(0) = 1, which the rule gives exactly but the summation only
    to roundoff.
    """
    if n_lags < 1:
        raise ValueError("need at least one lag")
    n = _j0_nodes(2.0 * c * dt * (n_lags - 1))
    omega = 2.0 * c * np.sin((np.arange(n // 2) + 0.5) * (np.pi / n))
    weight = np.full((omega.size, 1), 2.0 / n)
    out = _ensemble_series(dt, n_lags, omega, weight,
                           np.zeros_like(weight))[:, 0]
    out[0] = 1.0
    return beta * out


def _release_free_heap():
    """Hand the free pages of the C heap back to the OS (glibc only).

    glibc keeps a free heap top smaller than twice its dynamic mmap
    threshold, and free chunks below a live one, resident. After a
    call that frees tens of MB of mid-sized arrays, how much of that
    stays resident then hangs on where the allocator happened to put the
    few small arrays that survive it, which varies from process to
    process with address and hash randomization. malloc_trim gives it
    all back, so the resident size that follows is the same every run.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):     # not glibc
        return
    trim.argtypes = [ctypes.c_size_t]
    trim(0)


def momentum_autocorr(cfg: ChainConfig, n_runs) -> AutocorrReport:
    """Ensemble- and time-averaged E[p0(t) p0(0)] with its exact oracle.

    Run r is sample_invariant(cfg, default_rng([cfg.seed, r])) and
    contributes a biased-normalized time-averaged autocovariance; runs
    are averaged in order. The p0 and q0 series of every run are sums
    over the odd modes only, the even ones having a node at the center;
    q0 is evaluated only over the reported lags. Lags are reported up to
    the run's end, capped at M/(2c), half the reflection-free window.

    Runs are drawn and evaluated _RUN_BLOCK at a time, or fewer when
    their FFTs would pass MAX_BLOCK_FFT, and one pair of trig tables
    serves the p0 and q0 series of every block. A block adds its runs'
    autocovariances to a running sum in run order and writes their q0
    series into the kept (lags x runs) array; the p0 series and their
    FFTs live for one block only. An ensemble past MAX_RUN_ENTRIES, or a
    run whose FFT alone passes MAX_BLOCK_FFT, is refused before any
    allocation.
    """
    from .statmech import _fft_autocov, autocov_fft_length

    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    n, ctr = cfg.n_sites, cfg.center
    T = cfg.n_steps + 1
    if n_runs * (T + n) > MAX_RUN_ENTRIES:
        raise ValueError(
            f"runs = {n_runs} over a grid of {T} samples (t_max = "
            f"{cfg.t_max}, dt = {cfg.dt}) and {n} sites is "
            f"{n_runs * (T + n):.4g} run entries; at most "
            f"{MAX_RUN_ENTRIES} are allowed")
    max_lag = min(T - 1, int(np.floor(cfg.half_width / (2.0 * cfg.c) / cfg.dt)))
    transform = autocov_fft_length(T, max_lag)
    block = min(n_runs, _RUN_BLOCK, MAX_BLOCK_FFT // transform)
    if block < 1:
        raise ValueError(
            f"a grid of {T} samples (t_max = {cfg.t_max}, dt = {cfg.dt}) "
            f"with lags up to {max_lag} (M = {cfg.half_width}, c = {cfg.c}) "
            f"needs an FFT of {transform} samples per run; at most "
            f"{MAX_BLOCK_FFT} are allowed")
    t = cfg.t_grid
    # the center row phi0(k) is proportional to sin(pi k / 2): every even
    # mode has a node there, so p0 and q0 are sums over the odd modes
    odd = slice(0, None, 2)                        # k = 1, 3, 5, ...
    omega = cfg.mode_frequencies()[odd]
    phi0 = _site_rows(n, (ctr,))[0][odd]

    series = _trig_kernel(cfg.dt, omega, _half_width(T, block))
    acov_sum = np.zeros(max_lag + 1)
    q0_runs = np.empty((max_lag + 1, n_runs))
    for lo in range(0, n_runs, block):
        runs = range(lo, min(lo + block, n_runs))
        # row j holds run lo + j's weights; the series take columns
        pc, ps, qc, qs = np.empty((4, len(runs), omega.size))
        for j, r in enumerate(runs):
            state = sample_invariant(cfg, np.random.default_rng([cfg.seed, r]))
            qh, ph = _spectral_coeffs(state)
            qh, ph = qh[odd], ph[odd]
            pc[j] = phi0 * ph
            ps[j] = -phi0 * qh * omega
            qc[j] = phi0 * qh
            qs[j] = phi0 * ph / omega
        p0_runs = series(T, pc.T, ps.T, np.empty((T, len(runs))))
        for acov in _fft_autocov(p0_runs, max_lag).T:    # in run order
            acov_sum += acov
        series(max_lag + 1, qc.T, qs.T, q0_runs[:, lo:lo + len(runs)])
    # the tables and the last block (about 12 MB at acceptance 07's size)
    # are gone before the oracle builds its own
    del series, pc, ps, qc, qs, p0_runs
    gamma_hat = acov_sum / n_runs
    lags = t[: max_lag + 1]
    oracle = autocov_oracle(cfg.c, cfg.beta, cfg.dt, max_lag + 1)
    q0_runs -= q0_runs[0]                          # q0(t_m) - q0(0)
    drift = np.var(q0_runs, axis=1)
    del q0_runs
    _release_free_heap()
    return AutocorrReport(lags, gamma_hat, oracle, drift)


def isolated_site_series(n_sites, c, t_max, dt):
    """End-site momentum of a free clamped chain after an end impulse.

    Every sine mode has nonzero weight at the end site, so the response
    sum_k phi_k(end)^2 cos(omega_k t) carries all n_sites distinct
    frequencies — the cleanest probe for line-counting experiments.
    """
    if n_sites < 1 or not c > 0:
        raise ValueError("need at least one site and c > 0")
    n_t = _grid_samples(dt, t_max)
    k = np.arange(1, n_sites + 1)
    weight = (2.0 / (n_sites + 1)) * np.sin(np.pi * k / (n_sites + 1)) ** 2
    omega = _mode_frequencies(n_sites, c)
    p_end = _ensemble_series(dt, n_t, omega, weight[:, None],
                             np.zeros((n_sites, 1)))[:, 0]
    return np.arange(n_t) * dt, p_end
