"""Chain mechanics: spectra, Gibbs sampling, exact flow, wave identities."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst
from scipy.linalg import cholesky_banded, solve_banded
from scipy.special import j0

from wavebath import lattice, waveline
from wavebath.lattice import (
    AutocorrReport,
    ChainConfig,
    ChainState,
    FactorStencil,
    ReflectionWindowError,
    SiteModelPair,
    autocov_oracle,
    chain_energy,
    evolve_state,
    integrate,
    isolated_site_series,
    langevin_residual,
    momentum_autocorr,
    reduced_models,
    sample_invariant,
)
from wavebath.lattice import (MAX_RUN_ENTRIES, MAX_SAMPLES, MAX_SITES,
                              _CHUNK, _RUN_BLOCK, _STACK, _dst1,
                              _ensemble_series, _half_width, _j0_nodes)
from wavebath.ratfun import RationalFunction
from wavebath.statmech import _fft_length


def dirichlet_potential(n_sites, c):
    """Spring matrix V^2 of a clamped chain: tridiag(-c^2, 2c^2, -c^2)."""
    V2 = np.zeros((n_sites, n_sites))
    np.fill_diagonal(V2, 2.0 * c * c)
    off = -c * c
    idx = np.arange(n_sites - 1)
    V2[idx, idx + 1] = off
    V2[idx + 1, idx] = off
    return V2


def banded_potential(n, c):
    """V^2 in upper band storage: superdiagonal row, then diagonal."""
    V2 = np.zeros((2, n))
    V2[0, 1:] = -c * c
    V2[1] = 2.0 * c * c
    return V2


def small_cfg(**kw):
    base = dict(half_width=6, c=1.3, beta=0.9, dt=0.05, t_max=4.0, seed=5)
    base.update(kw)
    return ChainConfig(**base)


class TestChainConfig:
    def test_site_layout(self):
        cfg = small_cfg()
        assert cfg.n_sites == 13
        assert cfg.center == 6
        assert cfg.t_grid[0] == 0.0
        assert cfg.t_grid[-1] == pytest.approx(4.0)

    def test_mode_frequencies_fill_the_band(self):
        cfg = small_cfg()
        w = cfg.mode_frequencies()
        assert np.all(w > 0)
        assert np.all(w < 2 * cfg.c)
        assert np.all(np.diff(w) > 0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(half_width=1),
            dict(half_width=2.5),
            dict(c=0.0),
            dict(beta=-0.1),
            dict(dt=0.0),
            dict(dt=5.0),            # dt > t_max
            dict(beta=float("nan")),
            dict(beta=float("inf")),
            dict(c=float("inf")),
            dict(t_max=float("inf"), guarded=False),
        ],
    )
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises((ValueError, ReflectionWindowError)):
            small_cfg(**kw)

    def test_one_step_grid_refused_by_name(self):
        with pytest.raises(ValueError, match="at least 3") as info:
            small_cfg(dt=1.0, t_max=1.5)
        assert "dt" in str(info.value) and "t_max" in str(info.value)
        assert small_cfg(dt=1.0, t_max=2.0).n_steps == 2

    # construction checks the grid and allocates nothing, so grids past
    # the limit are built here only to be refused
    @pytest.mark.parametrize("dt, t_max", [
        (1e-300, 1.0), (5e-324, 1.0), (1.0, float(MAX_SAMPLES)),
    ], ids=["dt-1e-300", "ratio-past-float-range", "one-over-limit"])
    def test_grid_past_the_limit_refused_by_name(self, dt, t_max):
        with pytest.raises(ValueError, match="at most") as info:
            small_cfg(half_width=2, dt=dt, t_max=t_max, guarded=False)
        assert "dt" in str(info.value) and "t_max" in str(info.value)

    def test_grid_at_the_limit_accepted(self):
        cfg = small_cfg(half_width=2, dt=1.0, t_max=MAX_SAMPLES - 1.0,
                        guarded=False)
        assert cfg.n_steps + 1 == MAX_SAMPLES

    # construction allocates nothing, so chains past the limit are built
    # here only to be refused
    @pytest.mark.parametrize("half_width", [10**9, MAX_SITES // 2 + 1],
                             ids=["M-1e9", "one-over-limit"])
    def test_chain_past_the_site_limit_refused_by_name(self, half_width):
        with pytest.raises(ValueError, match="at most") as info:
            small_cfg(half_width=half_width)
        assert f"M = {half_width} " in str(info.value)

    def test_chain_at_the_site_limit_accepted(self):
        assert small_cfg(half_width=MAX_SITES // 2).n_sites == MAX_SITES

    def test_one_reflection_window_error(self):
        assert ReflectionWindowError is waveline.ReflectionWindowError

    def test_guard_limits_horizon(self):
        with pytest.raises(ReflectionWindowError):
            small_cfg(t_max=6.0)     # M/c = 6/1.3 ~ 4.6
        cfg = small_cfg(t_max=50.0, guarded=False)
        assert cfg.t_max == 50.0


class TestPotential:
    def test_three_site_stencil(self):
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                             [0.0, -1.0, 2.0]])
        assert np.array_equal(dirichlet_potential(3, 1.0), expected)

    def test_diagonal_value(self):
        cfg = small_cfg(half_width=2, c=2.0, t_max=0.9)
        V2 = dirichlet_potential(cfg.n_sites, cfg.c)
        assert np.all(np.diag(V2) == 8.0)
        assert V2.shape == (5, 5)

    def test_spectrum_inside_band(self):
        cfg = small_cfg()
        evals = np.linalg.eigvalsh(dirichlet_potential(cfg.n_sites, cfg.c))
        assert np.all(evals > 0)
        assert np.all(evals < 4 * cfg.c**2)

    def test_matches_analytic_frequencies(self):
        cfg = small_cfg()
        V2 = dirichlet_potential(cfg.n_sites, cfg.c)
        evals = np.sort(np.linalg.eigvalsh(V2))
        assert np.allclose(np.sqrt(evals), np.sort(cfg.mode_frequencies()),
                           rtol=0, atol=1e-12)


class TestFactorStencil:
    def test_apply_is_forward_difference(self):
        s = FactorStencil(2.0)
        q = np.array([1.0, 4.0, 9.0])
        assert np.array_equal(s.apply(q), np.array([6.0, 10.0, -18.0]))

    def test_product_reproduces_interior_rows_exactly(self):
        s = FactorStencil(1.0)
        R = np.column_stack([s.apply(e) for e in np.eye(7)])  # R e_j
        P = R.T @ R
        V2 = dirichlet_potential(7, 1.0)
        assert np.array_equal(P[1:], V2[1:])
        assert P[0, 0] == 1.0 and V2[0, 0] == 2.0   # corner defect only

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            FactorStencil(0.0)


class TestGibbsSampling:
    def test_deterministic_for_fixed_config(self):
        cfg = small_cfg()
        s1, s2 = sample_invariant(cfg), sample_invariant(cfg)
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.p, s2.p)

    def test_zero_temperature_is_zero_state(self):
        s = sample_invariant(small_cfg(beta=0.0))
        assert np.all(s.q == 0.0)
        assert np.all(s.p == 0.0)

    def test_momentum_variance(self):
        # momenta are i.i.d. across sites, so pooling sites and draws
        # gives ~1e5 effective samples
        cfg = small_cfg(half_width=30, beta=2.0, t_max=4.0)
        rng = np.random.default_rng(cfg.seed)
        pool = [sample_invariant(cfg, rng).p for _ in range(1600)]
        assert np.var(np.concatenate(pool)) == pytest.approx(2.0, rel=0.02)

    def test_difference_coordinates_whiten(self):
        # x = V* q should have covariance ~ beta I; the known finite-size
        # correction is a rank-one -beta/(n+1) term, well under the band
        cfg = small_cfg(half_width=30, beta=1.4, t_max=4.0)
        stencil = FactorStencil(cfg.c)
        rng = np.random.default_rng(77)
        draws = np.array([stencil.apply(sample_invariant(cfg, rng).q)
                          for _ in range(4000)])
        C = np.cov(draws.T) / cfg.beta
        off = C - np.diag(np.diag(C))
        n = cfg.n_sites
        assert np.max(np.abs(np.diag(C) - 1.0)) < 0.1
        # the band covers the max over ~n^2/2 entries (hence the factor
        # beyond 3 sigma) plus the rank-one truncation term
        assert np.max(np.abs(off)) < 4.5 / np.sqrt(4000.0) + 1.0 / (n + 1)

    def test_configuration_covariance_solves_potential(self):
        # E[q q^T] = beta (V^2)^{-1}: check a few entries by ensemble
        cfg = small_cfg(half_width=4, beta=1.0, t_max=2.0)
        rng = np.random.default_rng(123)
        draws = np.array([sample_invariant(cfg, rng).q for _ in range(20000)])
        emp = draws.T @ draws / draws.shape[0]
        target = np.linalg.inv(dirichlet_potential(cfg.n_sites, cfg.c))
        assert np.max(np.abs(emp - target)) < 0.05 * np.max(target)

    @pytest.mark.parametrize("n", [5, 401, 4001])
    @pytest.mark.parametrize("c", [0.7, 1.0, 1.3])
    def test_closed_form_factor_matches_banded_cholesky(self, n, c):
        # the cumulative-sum back-substitution solves R q = sqrt(beta) g
        # to roundoff, R the numerically factored Cholesky factor of V^2
        cfg = small_cfg(half_width=(n - 1) // 2, c=c, t_max=1.0)
        q = sample_invariant(cfg, np.random.default_rng(9)).q
        rng = np.random.default_rng(9)
        rng.standard_normal(n)                           # p is drawn first
        g = np.sqrt(cfg.beta) * rng.standard_normal(n)
        R = cholesky_banded(banded_potential(n, c))     # superdiagonal, diagonal
        Rq = R[1] * q
        Rq[:-1] += R[0, 1:] * q[1:]
        assert np.max(np.abs(Rq - g)) <= 1e-13 * c * np.max(np.abs(q))

    @pytest.mark.parametrize("half_width", [2, 200, 2000])
    def test_draw_matches_numerical_factorization(self, half_width):
        # the LAPACK route: banded Cholesky, then a general banded solve
        cfg = small_cfg(half_width=half_width, t_max=1.0)
        n = cfg.n_sites
        got = sample_invariant(cfg, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        p = np.sqrt(cfg.beta) * rng.standard_normal(n)
        g = np.sqrt(cfg.beta) * rng.standard_normal(n)
        q = solve_banded((0, 1), cholesky_banded(banded_potential(n, cfg.c)),
                         g)
        assert np.array_equal(got.p, p)
        assert np.max(np.abs(got.q - q)) <= 1e-11 * np.max(np.abs(q))


class TestSineTransform:
    @pytest.mark.parametrize("n", [1, 2, 5, 801, 4001])
    def test_matches_scipy_dst(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        oracle = dst(x, type=1, norm="ortho")
        assert np.max(np.abs(_dst1(x) - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [1, 2, 5, 801, 4001])
    def test_stacked_rows_bitwise_as_one_by_one(self, n):
        x = np.random.default_rng(n).standard_normal((2, n))   # q and p
        rows = np.stack([_dst1(row) for row in x])
        assert np.array_equal(_dst1(x), rows)

    @pytest.mark.parametrize("n", [1, 2, 5, 801, 4001])
    def test_is_its_own_inverse(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        assert np.max(np.abs(_dst1(_dst1(x)) - x)) <= 1e-14 * np.max(np.abs(x))


class TestExactFlow:
    def test_energy_conserved(self):
        cfg = small_cfg()
        s0 = sample_invariant(cfg)
        h0 = chain_energy(s0, cfg)
        s1 = evolve_state(s0, cfg, cfg.t_max)
        assert abs(chain_energy(s1, cfg) - h0) < 1e-10 * h0

    def test_flow_is_additive_in_time(self):
        cfg = small_cfg()
        s0 = sample_invariant(cfg)
        one = evolve_state(s0, cfg, 3.0)
        two = evolve_state(evolve_state(s0, cfg, 1.25), cfg, 1.75)
        assert np.allclose(one.q, two.q, rtol=0, atol=1e-12)
        assert np.allclose(one.p, two.p, rtol=0, atol=1e-12)

    def test_zero_time_is_identity(self):
        cfg = small_cfg()
        s0 = sample_invariant(cfg)
        s1 = evolve_state(s0, cfg, 0.0)
        assert np.allclose(s1.q, s0.q, rtol=0, atol=1e-13)
        assert np.allclose(s1.p, s0.p, rtol=0, atol=1e-13)

    def test_trace_matches_full_states(self):
        cfg = small_cfg()
        s0 = sample_invariant(cfg)
        trace = integrate(s0, cfg)
        for m in (7, 31, 62):
            snap = evolve_state(s0, cfg, cfg.t_grid[m])
            assert trace.q0[m] == pytest.approx(snap.q[cfg.center], abs=1e-12)
            assert trace.p0[m] == pytest.approx(snap.p[cfg.center], abs=1e-12)

    def test_zero_state_gives_zero_trace(self):
        cfg = small_cfg()
        n = cfg.n_sites
        trace = integrate(ChainState(np.zeros(n), np.zeros(n)), cfg)
        for series in (trace.q0, trace.p0, trace.w, trace.w_bar):
            assert np.all(series == 0.0)

    def test_impulse_response_is_bessel_profile(self):
        # center impulse on a long chain: p0(t) equals the symbol
        # integral (= J0(2ct)) until end reflections arrive
        cfg = ChainConfig(half_width=40, c=1.0, beta=1.0, dt=0.05,
                          t_max=24.0, seed=0)
        n = cfg.n_sites
        p = np.zeros(n)
        p[cfg.center] = 1.0
        trace = integrate(ChainState(np.zeros(n), p), cfg)
        assert np.max(np.abs(trace.p0 - j0(2.0 * trace.t_grid))) < 1e-12

    def test_state_size_mismatch_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            integrate(ChainState(np.zeros(5), np.zeros(5)), cfg)


class TestLangevinResidual:
    def test_second_order_in_dt(self):
        s0 = sample_invariant(small_cfg())
        r = {}
        for dt in (0.05, 0.025):
            tr = integrate(s0, small_cfg(dt=dt))
            r[dt] = langevin_residual(tr, 1.3)
        assert r[0.05] / r[0.025] == pytest.approx(4.0, rel=0.15)

    def test_zero_trace_gives_zero(self):
        cfg = small_cfg()
        n = cfg.n_sites
        tr = integrate(ChainState(np.zeros(n), np.zeros(n)), cfg)
        assert langevin_residual(tr, cfg.c) == 0.0

    def test_detects_injected_fault(self):
        cfg = small_cfg()
        tr = integrate(sample_invariant(cfg), cfg)
        clean = langevin_residual(tr, cfg.c)
        broken = type(tr)(tr.t_grid, tr.q0, tr.p0, tr.w + 0.5, tr.w_bar)
        # shifting w by 0.5 perturbs the forward identity by 4c * 0.5
        assert langevin_residual(broken, cfg.c) > 2.0 * cfg.c - clean - 1e-12


class TestReducedPair:
    def test_matrices_and_quotient(self):
        pair = reduced_models(1.5)
        assert np.array_equal(pair.gamma, [[0.0, 1.0], [0.0, -3.0]])
        assert np.array_equal(pair.gamma_bar, [[0.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(pair.input_gain, [0.0, 6.0])
        assert pair.Q.close_to(RationalFunction([-3.0, 1.0], [3.0, 1.0]), 0)

    def test_half_coupling_eigenvalues(self):
        pair = reduced_models(0.5)
        assert sorted(np.linalg.eigvals(pair.gamma)) == [-1.0, 0.0]
        assert sorted(np.linalg.eigvals(pair.gamma_bar)) == [0.0, 1.0]

    def test_time_reversal_asymmetry_witness(self):
        # reversing time does not map the forward model to the backward
        # one: the (0,1) entries already disagree
        pair = reduced_models(2.0)
        assert pair.gamma_bar[0, 1] != -pair.gamma[0, 1]
        assert np.any(pair.gamma_bar != -pair.gamma)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 50.0))
    def test_property_mirror_spectra(self, c):
        pair = reduced_models(c)
        fwd = np.sort(np.linalg.eigvals(pair.gamma))
        bwd = np.sort(np.linalg.eigvals(-pair.gamma_bar))
        assert np.allclose(fwd, bwd, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reduced_models(0.0)
        with pytest.raises(ValueError):
            SiteModelPair(np.array([[0.0, 1.0], [0.0, -2.0]]),
                          np.array([[0.0, 1.0], [0.0, 3.0]]),
                          np.array([0.0, 4.0]),
                          RationalFunction([-1.0, 1.0], [1.0, 1.0]))


def legendre_oracle(c, beta, lags):
    """beta * (1/pi) * integral_0^pi cos(2 c t sin(theta/2)) d theta.

    Composite Gauss-Legendre quadrature, independent of the Bessel
    closed form: at c t = 1000 each of the 256 panels spans about two
    periods of the integrand, which a 32-node rule integrates to
    roundoff.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, np.pi, 257)
    half = 0.5 * np.diff(edges)[:, None]
    theta = (edges[:-1, None] + half * (nodes + 1.0)).ravel()
    w = (half * weights).ravel() / np.pi
    s = np.sin(0.5 * theta)
    lags = np.asarray(lags, dtype=float)
    out = np.empty(lags.size)
    for lo in range(0, lags.size, 256):     # keeps the phase table small
        phase = np.outer(2.0 * c * lags[lo:lo + 256], s)
        out[lo:lo + 256] = np.cos(phase) @ w
    return beta * out


class TestAutocovOracle:
    def test_lag_zero_is_beta(self):
        assert autocov_oracle(1.0, 1.7, 0.25, 1)[0] == pytest.approx(1.7, abs=1e-13)

    def test_agrees_with_bessel_closed_form(self):
        # the acceptance-07 lag range: c = 1, lags 0..1000 at dt = 0.25
        lags = 0.25 * np.arange(4001)
        got = autocov_oracle(1.0, 2.1, 0.25, lags.size)
        assert np.max(np.abs(got - legendre_oracle(1.0, 2.1, lags))) < 1e-10

    @pytest.mark.parametrize("dt, c", [(0.25, 1.0), (2.5, 1.0), (0.5, 0.7)],
                             ids=["acceptance-07", "ten-times-range",
                                  "c-0.7"])
    def test_matches_scipy_j0(self, dt, c):
        # 4001 lags: x = 2ct up to 2000 (acceptance 07) and up to 20000
        lags = dt * np.arange(4001)
        got = autocov_oracle(c, 2.1, dt, lags.size)
        assert np.max(np.abs(got - 2.1 * j0(2.0 * c * lags))) <= 1e-13

    @pytest.mark.parametrize("t_max", [0.0, 1e-9, 0.05, 0.5, 2.0])
    def test_small_arguments_use_the_node_floor(self, t_max):
        # N = x/2 + 6 x^{1/3} alone would give no node at x = 0 and two
        # at x = 1e-9; the floor keeps at least 16, and every count is
        # even so the nodes pair up about pi/2
        lags = (t_max / 40) * np.arange(41)
        n = _j0_nodes(2.0 * t_max)
        assert n >= 16 and n % 2 == 0
        got = autocov_oracle(1.0, 1.0, t_max / 40, lags.size)
        assert np.max(np.abs(got - j0(2.0 * lags))) <= 1e-15
        assert got[0] == 1.0


def autocorr_peak_model(cfg, n_runs):
    """momentum_autocorr's peak bytes by the model stated next to
    MAX_RUN_ENTRIES: the kept q0 series, one block's p0 series, FFTs and
    weights, one draw, the trig tables and one trig-GEMM's stack."""
    samples, sites = cfg.n_steps + 1, cfg.n_sites
    lags = min(samples - 1, int(cfg.half_width / (2.0 * cfg.c) / cfg.dt)) + 1
    block = min(n_runs, _RUN_BLOCK)
    transform = _fft_length(samples + lags - 1)
    half = _half_width(samples, block)
    return (8 * lags * n_runs
            + block * (8 * samples + 40 * transform + 16 * sites)
            + 200 * sites + 16 * (half + 1) * (cfg.half_width + 1)
            + 8 * _STACK)


@pytest.fixture(scope="module")
def report():
    cfg = ChainConfig(half_width=60, c=1.0, beta=1.3, dt=0.25,
                      t_max=55.0, seed=11)
    return momentum_autocorr(cfg, 60)


class TestMomentumAutocorr:
    def test_lag_zero_variance(self, report):
        assert report.empirical[0] == pytest.approx(1.3, rel=0.05)

    def test_tracks_oracle(self, report):
        assert np.max(np.abs(report.empirical - report.oracle)) < 0.12 * 1.3

    def test_lags_capped_at_reflection_window(self, report):
        assert report.lags[-1] <= 60 / 2.0 + 1e-9

    def test_position_variance_grows(self, report):
        # unbounded-position witness: late drift exceeds early drift
        third = report.q_drift.size // 3
        early = np.mean(report.q_drift[1 : third + 1])
        late = np.mean(report.q_drift[-third:])
        assert late > 2.0 * early
        assert report.q_drift[0] == 0.0

    def test_deterministic(self):
        cfg = ChainConfig(half_width=20, c=1.0, beta=0.7, dt=0.5,
                          t_max=15.0, seed=3)
        r1 = momentum_autocorr(cfg, 5)
        r2 = momentum_autocorr(cfg, 5)
        assert np.array_equal(r1.empirical, r2.empirical)

    def test_ensemble_budget_refused_before_allocation(self, monkeypatch):
        cfg = small_cfg()  # 81 samples, 13 sites
        limit = MAX_RUN_ENTRIES // (cfg.n_steps + 1 + cfg.n_sites)

        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(lattice, "sample_invariant", sampled)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"runs = \d+ over a grid "
                               r"of 81 samples \(t_max = 4.0, dt = 0.05\) "
                               r"and 13 sites"):
                momentum_autocorr(cfg, limit + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the ensemble's weights alone would take 2 x 7 x limit floats
        assert peak < 2 * 7 * limit * 8 / 10
        with pytest.raises(Sampled):
            momentum_autocorr(cfg, limit)

    # the README's autocorr line and acceptance 07; holding every run's
    # p0 series and FFTs at once took 18.7 MB and 109.1 MB
    @pytest.mark.parametrize("cfg, n_runs", [
        (ChainConfig(half_width=400, c=1.0, beta=1.0, dt=0.25, t_max=380.0,
                     seed=1), 160),
        (ChainConfig(half_width=2000, c=1.0, beta=1.3, dt=0.25,
                     t_max=1900.0, seed=2026), 200),
    ], ids=["readme", "acceptance-07"])
    def test_peak_memory_follows_the_byte_model(self, cfg, n_runs):
        tracemalloc.start()
        try:
            momentum_autocorr(cfg, n_runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= autocorr_peak_model(cfg, n_runs)

    @pytest.mark.parametrize("n_runs", [1, _RUN_BLOCK, _RUN_BLOCK + 1])
    def test_run_blocks_change_nothing_past_rounding(self, monkeypatch,
                                                     n_runs):
        # 1201 samples: the series cross several time blocks
        cfg = ChainConfig(half_width=64, c=1.0, beta=0.7, dt=0.05,
                          t_max=60.0, seed=3)
        blocked = momentum_autocorr(cfg, n_runs)
        monkeypatch.setattr(lattice, "_RUN_BLOCK", n_runs)
        whole = momentum_autocorr(cfg, n_runs)
        np.testing.assert_array_equal(blocked.lags, whole.lags)
        np.testing.assert_array_equal(blocked.oracle, whole.oracle)
        assert np.max(np.abs(blocked.empirical - whole.empirical)) \
            <= 1e-13 * cfg.beta
        assert np.max(np.abs(blocked.q_drift - whole.q_drift)) \
            <= 1e-13 * np.max(whole.q_drift)
        if n_runs <= _RUN_BLOCK:    # one block either way
            np.testing.assert_array_equal(blocked.empirical, whole.empirical)
            np.testing.assert_array_equal(blocked.q_drift, whole.q_drift)

    def test_runs_come_from_the_gibbs_sampler(self):
        cfg = ChainConfig(half_width=20, c=1.0, beta=0.7, dt=0.5,
                          t_max=15.0, seed=3)
        rep = momentum_autocorr(cfg, 1)
        state = sample_invariant(cfg, np.random.default_rng([cfg.seed, 0]))
        p0 = integrate(state, cfg).p0
        x = p0 - p0.mean()
        T = x.size
        direct = np.array([x[: T - k] @ x[k:] / T
                           for k in range(rep.lags.size)])
        assert np.max(np.abs(rep.empirical - direct)) < 1e-12

    def test_heap_release_leaves_the_report_alone(self, monkeypatch):
        # glibc or not, handing the freed heap back changes no result
        cfg = ChainConfig(half_width=20, c=1.0, beta=0.7, dt=0.5,
                          t_max=15.0, seed=3)
        trimmed = momentum_autocorr(cfg, 3)

        def no_c_library(name):
            raise OSError("no C library here")

        monkeypatch.setattr(lattice.ctypes, "CDLL", no_c_library)
        assert lattice._release_free_heap() is None
        untrimmed = momentum_autocorr(cfg, 3)
        for a, b in zip(trimmed.__dict__.values(),
                        untrimmed.__dict__.values()):
            np.testing.assert_array_equal(a, b)

    # the second config's 1201 samples cross several blocks of the series
    # kernel and end on a partial one
    @pytest.mark.parametrize("cfg", [
        ChainConfig(half_width=20, c=1.0, beta=0.7, dt=0.5, t_max=15.0,
                    seed=3),
        ChainConfig(half_width=64, c=1.0, beta=0.7, dt=0.05, t_max=60.0,
                    seed=3),
    ], ids=["one-block", "many-blocks"])
    def test_odd_modes_match_all_mode_evaluation(self, cfg):
        # p0 and q0 summed over every mode by direct trig; the even modes
        # have a node at the center and contribute only roundoff
        n_runs = 4
        rep = momentum_autocorr(cfg, n_runs)
        n, omega = cfg.n_sites, cfg.mode_frequencies()
        phi0 = np.sqrt(2.0 / (n + 1)) * np.sin(
            np.pi * (cfg.center + 1) * np.arange(1, n + 1) / (n + 1))
        phase = np.outer(cfg.t_grid, omega)
        cos_t, sin_t = np.cos(phase), np.sin(phase)
        p0, q0 = [], []
        for r in range(n_runs):
            state = sample_invariant(cfg, np.random.default_rng([cfg.seed, r]))
            qh = dst(state.q, type=1, norm="ortho")
            ph = dst(state.p, type=1, norm="ortho")
            p0.append(cos_t @ (phi0 * ph) - sin_t @ (phi0 * qh * omega))
            q0.append(cos_t @ (phi0 * qh) + sin_t @ (phi0 * ph / omega))
        p0, q0 = np.array(p0).T, np.array(q0).T
        L, T = rep.lags.size, cfg.t_grid.size
        x = p0 - p0.mean(axis=0)
        empirical = np.array([np.mean(np.sum(x[: T - k] * x[k:], axis=0))
                              / T for k in range(L)])
        drift = np.var(q0[:L] - q0[0], axis=1)
        assert np.max(np.abs(rep.empirical - empirical)) <= 1e-12
        assert np.max(np.abs(rep.q_drift - drift)) <= 1e-12 * np.max(drift)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            momentum_autocorr(small_cfg(), 0)

    def test_csv_export(self):
        cfg = ChainConfig(half_width=20, c=1.0, beta=0.7, dt=0.5,
                          t_max=15.0, seed=3)
        rep = momentum_autocorr(cfg, 3)
        buf = io.StringIO()
        rep.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "lag,empirical,oracle"
        assert len(lines) == rep.lags.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == rep.oracle[0]


class TestEnsembleSeries:
    # 1-3 samples give one-sample and one-row blocks; 37 fits in one block;
    # 1024-1026 sit around 2 _CHUNK + 1; for 200 series 2049-2051 end one
    # sample short of, on, and one past the second capped block, and 7601
    # is seven capped blocks and a partial one
    @pytest.mark.parametrize("n_series", [1, 4, 200])
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 37, 2 * _CHUNK,
                                           2 * _CHUNK + 1, 2 * _CHUNK + 2,
                                           2049, 2050, 2051, 7601])
    def test_block_rotation_matches_direct_trig(self, n_samples, n_series):
        n, dt = 401, 0.25
        omega = 2.0 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1)))
        Wc, Ws = np.random.default_rng(4).standard_normal((2, n, n_series))
        got = _ensemble_series(dt, n_samples, omega, Wc, Ws)
        phase = np.outer(np.arange(n_samples) * dt, omega)
        direct = np.cos(phase) @ Wc + np.sin(phase) @ Ws
        weight_norm = np.abs(Wc).sum(axis=0) + np.abs(Ws).sum(axis=0)
        assert np.max(np.abs(got - direct) / weight_norm) <= 1e-11

    def test_two_trig_tables_live(self):
        # h = _CHUNK at n = 4001: the sine table is taken in place over
        # the phase table, so two (h + 1) x n tables are live at the peak;
        # a third live table would put it above 3 tables
        n, n_series, n_samples = 4001, 16, 16385
        omega = 2.0 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1)))
        Wc, Ws = np.random.default_rng(4).standard_normal((2, n, n_series))
        table = (_CHUNK + 1) * n * 8
        tracemalloc.start()
        try:
            out = _ensemble_series(0.05, n_samples, omega, Wc, Ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * table < peak < 2.5 * table
        picks = [0, 513, 1024, n_samples - 1]
        phase = np.outer(0.05 * np.array(picks), omega)
        direct = np.cos(phase) @ Wc + np.sin(phase) @ Ws
        scale = np.abs(Wc).sum(axis=0) + np.abs(Ws).sum(axis=0)
        assert np.max(np.abs(out[picks] - direct) / scale) <= 1e-11


class TestParticleTraceCsv:
    def test_layout(self):
        cfg = small_cfg()
        trace = integrate(sample_invariant(cfg), cfg)
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,q0,p0,w,wbar"
        assert len(lines) == trace.t_grid.size + 1
        probe = lines[12].split(",")
        assert float(probe[2]) == trace.p0[11]


class TestIsolatedSeries:
    def test_impulse_normalization(self):
        t, p = isolated_site_series(5, 1.0, 10.0, 0.1)
        assert p[0] == pytest.approx(1.0, abs=1e-13)
        assert t[1] == 0.1

    @pytest.mark.parametrize("n, c, t_max, dt", [
        (4, 0.7, 8.0, 0.05), (3, 1.0, 400.0, 0.25), (8, 1.0, 400.0, 0.25),
    ], ids=["short", "acceptance-09-n3", "acceptance-09-n8"])
    def test_matches_direct_mode_sum(self, n, c, t_max, dt):
        # acceptance 09 counts lines in the n = 3..8 series on this grid
        t, p = isolated_site_series(n, c, t_max, dt)
        k = np.arange(1, n + 1)
        w = 2.0 * c * np.sin(np.pi * k / (2 * (n + 1)))
        amp = (2.0 / (n + 1)) * np.sin(np.pi * k / (n + 1)) ** 2
        direct = sum(amp[i] * np.cos(w[i] * t) for i in range(n))
        assert np.allclose(p, direct, rtol=0, atol=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            isolated_site_series(0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            isolated_site_series(3, 1.0, 0.05, 0.1)

    @pytest.mark.parametrize("t_max, dt", [
        (float("inf"), 0.1), (1.0, 1e-300), (float(MAX_SAMPLES), 1.0),
    ], ids=["t-max-inf", "dt-1e-300", "one-over-limit"])
    def test_shares_the_chain_grid_refusals(self, t_max, dt):
        with pytest.raises(ValueError, match="t_max"):
            isolated_site_series(3, 1.0, t_max, dt)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.4, 3.0))
def test_property_energy_and_identities(seed, c):
    cfg = ChainConfig(half_width=5, c=c, beta=1.1, dt=0.02,
                      t_max=min(3.0, 0.9 * 5 / c), seed=seed)
    s0 = sample_invariant(cfg)
    h0 = chain_energy(s0, cfg)
    trace = integrate(s0, cfg)
    s1 = evolve_state(s0, cfg, cfg.t_grid[-1])
    assert abs(chain_energy(s1, cfg) - h0) <= 1e-10 * max(h0, 1e-12)
    # differencing error bound, generous constant
    assert langevin_residual(trace, c) < 10.0 * c**3 * 0.02**2 * max(
        1.0, float(np.max(np.abs(trace.p0)))
    )
