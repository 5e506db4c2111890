"""Line simulator: transport exactness, energy ledger, reduced models."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebath._csv import BLOCK_ROWS, write_csv
from wavebath.coupling import Observable, close_loops
from wavebath.realization import FosterSpec, foster_realize, random_foster
from wavebath.waveline import (
    MAX_LINE_ENTRIES,
    BoundaryTrace,
    ContaminatedWindowError,
    DegenerateProbeError,
    LineConfig,
    ReflectionWindowError,
    WaveField,
    _cayley,
    decay_rate_probe,
    energy_drift,
    gaussian_field,
    init_waves,
    propagate,
    reduced_backward,
    reduced_forward,
    run_line,
)

CAP = foster_realize(FosterSpec(k0=1.0, tanks=()))
TANK = foster_realize(FosterSpec(k0=0.0, tanks=((0.5, 1.0),)))
CAP_TANK = foster_realize(FosterSpec(k0=0.5, tanks=((1.0, 2.0),)))


def bump_field(x_max, dx, center=2.0, width=0.08):
    """Purely incoming Gaussian bump: v = i, so b' = 0."""
    x = np.arange(int(round(x_max / dx))) * dx
    v0 = np.exp(-((x - center) ** 2) / width)
    return init_waves(v0, v0, dx)


def _reference_propagate(field, steps, config, pair, obs, convention="line",
                         xi0=None):
    """Tape-shifting oracle for `propagate`.

    Shifts both tapes one cell per step and sums the whole-line energy
    at every step: O(cells) work per step, with no delay-line algebra.
    """
    a = field.a_prime.copy()
    b = field.b_prime.copy()
    dx = field.dx
    radiated = field.radiated
    if steps < 0:
        raise ValueError("steps must be nonnegative")

    load, h = config.load, config.dt
    S, g = _cayley(pair.gamma, pair.input_gain, h)
    c0 = load.ss.c
    sign = 1.0 if convention == "line" else -1.0

    n = load.dim
    xi = np.zeros(n) if xi0 is None else np.asarray(xi0, dtype=float).copy()
    t = np.arange(steps + 1) * h
    xis = np.empty((steps + 1, n))
    ys = np.empty(steps + 1)
    ws = np.empty(steps + 1)
    wbars = np.empty(steps + 1)
    energies = np.empty(steps + 1)

    def record(m, xi_now):
        xis[m] = xi_now
        ws[m] = a[0]
        ys[m] = obs.h @ xi_now + 2.0 * obs.d * a[0]
        energies[m] = (
            dx * (a @ a + b @ b) + 0.5 * (xi_now @ xi_now) + radiated
        )

    record(0, xi)
    for m in range(steps):
        u = a[0]
        xi_next = S @ xi + g * u
        xi_mid = 0.5 * (xi + xi_next)
        v_mid = c0 @ xi_mid
        emitted = v_mid - u
        wbars[m] = sign * (u - v_mid)
        departing = b[-1]
        b[1:] = b[:-1]
        b[0] = emitted
        a[:-1] = a[1:]
        if config.far_end == "open":
            a[-1] = 0.0
            radiated += dx * departing * departing
        else:
            if config.reflection_free and departing != 0.0:
                raise ReflectionWindowError(
                    f"reflection would re-enter at step {m + 1} "
                    f"(t = {(m + 1) * h:.6g})"
                )
            a[-1] = -departing
        xi = xi_next
        record(m + 1, xi)
    wbars[steps] = sign * (ws[steps] - c0 @ xi)

    out = WaveField(a, b, dx, radiated)
    trace = BoundaryTrace(t, xis, ys, ws, wbars, energies)
    return out, trace


class TestLineConfig:
    def test_properties(self):
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=1.5, load=CAP)
        assert cfg.dt == 0.01
        assert cfg.n_cells == 200
        assert cfg.n_steps == 150

    @pytest.mark.parametrize(
        "kw",
        [
            dict(dx=0.0),
            dict(dx=-0.1),
            dict(x_max=1.005),           # not a whole number of cells
            dict(t_max=0.0),
            dict(t_max=4.0),             # >= 2 x_max in reflection-free mode
            dict(far_end="absorbing"),
            dict(t_max=np.nan),
            dict(x_max=np.inf),
        ],
    )
    def test_rejects_bad_geometry(self, kw):
        base = dict(dx=0.01, x_max=2.0, t_max=1.0, load=CAP)
        base.update(kw)
        with pytest.raises(ValueError):
            LineConfig(**base)

    # construction checks the budget and allocates nothing, so lines past
    # it are built here only to be refused
    @pytest.mark.parametrize("dx, x_max", [
        (1e-9, 8.0), (1e-320, 8.0), (1e-320, -8.0),
    ], ids=["dx-1e-9", "cells-past-float-range", "negative-past-float-range"])
    def test_line_past_the_budget_refused_by_name(self, dx, x_max):
        with pytest.raises(ValueError, match="at most") as info:
            LineConfig(dx=dx, x_max=x_max, t_max=6.0, load=CAP)
        for name in (f"dx = {dx}", f"x_max = {x_max}", "t_max = 6.0"):
            assert name in str(info.value)

    def test_line_at_the_budget_accepted(self):
        # 2 (steps + cells) + (steps + 1) entries for the dimension-1 load
        steps = 999_999
        cells = (MAX_LINE_ENTRIES - 3 * steps - 1) // 2
        cfg = LineConfig(dx=1.0, x_max=float(cells), t_max=float(steps),
                         load=CAP)
        assert (2 * (cfg.n_steps + cfg.n_cells) + cfg.n_steps + 1
                == MAX_LINE_ENTRIES)
        with pytest.raises(ValueError, match="at most"):
            LineConfig(dx=1.0, x_max=cells + 1.0, t_max=float(steps),
                       load=CAP)

    def test_long_runs_allowed_when_reflections_accepted(self):
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=40.0, load=CAP,
                         far_end="shorted", reflection_free=False)
        assert cfg.n_steps == 4000


class TestWaveField:
    def test_split_and_reconstruction(self):
        rng = np.random.default_rng(7)
        v0 = rng.standard_normal(50)
        i0 = rng.standard_normal(50)
        f = init_waves(v0, i0, 0.1)
        # roundoff is absolute in the split magnitudes, one ulp per add
        atol = 4e-16 * np.max(np.abs(v0) + np.abs(i0))
        assert np.allclose(f.a_prime + f.b_prime, v0, rtol=0, atol=atol)
        assert np.allclose(f.a_prime - f.b_prime, i0, rtol=0, atol=atol)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            init_waves(np.ones(3), np.ones(4), 0.1)
        with pytest.raises(ValueError):
            WaveField(np.ones((2, 2)), np.ones((2, 2)), 0.1)

    def test_rejects_nonfinite_data(self):
        v = np.ones(5)
        v[2] = np.inf
        with pytest.raises(ValueError):
            init_waves(v, np.ones(5), 0.1)

    def test_gaussian_field_variance_scaling(self):
        rng = np.random.default_rng(3)
        f = gaussian_field(rng, 4000, dx=0.01, sigma=1.0)
        assert np.var(f.a_prime + f.b_prime) == pytest.approx(100.0, rel=0.15)

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_gaussian_field_refuses_bad_sigma_by_name(self, sigma):
        with pytest.raises(ValueError, match=f"sigma .* got {sigma}"):
            gaussian_field(np.random.default_rng(3), 10, dx=0.01, sigma=sigma)

    def test_gaussian_field_zero_sigma_is_a_zero_field(self):
        f = gaussian_field(np.random.default_rng(3), 10, dx=0.01, sigma=0.0)
        assert not np.any(f.a_prime) and not np.any(f.b_prime)


class TestStepResponse:
    """Capacitor load hit by a unit incoming step: xi(t) = 2(1 - e^{-t})."""

    def run(self, dx):
        n = int(round(6.0 / dx))
        field = WaveField(np.ones(n), np.zeros(n), dx)
        cfg = LineConfig(dx=dx, x_max=6.0, t_max=5.0, load=CAP)
        return run_line(cfg, field)

    def test_matches_exponential_charge_curve(self):
        _, trace = self.run(0.01)
        exact = 2.0 * (1.0 - np.exp(-trace.t_grid))
        assert np.max(np.abs(trace.xi[:, 0] - exact)) < 2e-5

    def test_matches_discrete_trapezoidal_solution(self):
        _, trace = self.run(0.01)
        rho = (1 - 0.005) / (1 + 0.005)
        m = np.arange(trace.t_grid.size)
        assert np.max(np.abs(trace.xi[:, 0] - 2.0 * (1 - rho**m))) < 1e-12

    def test_output_is_port_voltage(self):
        _, trace = self.run(0.01)
        assert np.array_equal(trace.y, trace.xi[:, 0])

    def test_incoming_column_sees_the_step(self):
        _, trace = self.run(0.01)
        assert np.all(trace.w == 1.0)

    def test_outgoing_saturates_at_dc_reflection(self):
        # At DC the capacitor is an open circuit: the step reflects whole.
        # Line orientation records that as w - v0 -> -1; the string
        # orientation flips it to +1.
        _, trace = self.run(0.01)
        final = 2.0 * np.exp(-5.0) - 1.0   # 1 - xi(5), heading to -1
        assert trace.w_bar[-1] == pytest.approx(final, abs=1e-4)
        n = int(round(6.0 / 0.01))
        field = WaveField(np.ones(n), np.zeros(n), 0.01)
        cfg = LineConfig(dx=0.01, x_max=6.0, t_max=5.0, load=CAP)
        _, strace = run_line(cfg, field, convention="string")
        assert strace.w_bar[-1] == pytest.approx(-final, abs=1e-4)
        assert np.allclose(strace.w_bar, -trace.w_bar)

    def test_step_convergence_is_second_order(self):
        errs = []
        for dx in (0.04, 0.02):
            _, trace = self.run(dx)
            exact = 2.0 * (1.0 - np.exp(-trace.t_grid))
            errs.append(np.max(np.abs(trace.xi[:, 0] - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9


class TestTransportExactness:
    def test_interior_shift_is_bitwise(self):
        rng = np.random.default_rng(11)
        n = 300
        a0 = rng.standard_normal(n)
        b0 = rng.standard_normal(n)
        field = WaveField(a0, b0, 0.05)
        config = LineConfig(dx=0.05, x_max=15.0, t_max=1.0, load=TANK)
        out, _ = propagate(field, 10, config, close_loops(TANK),
                           Observable.build(TANK, TANK.ss.c, 0.0))
        # incoming cells far from the boundary moved 10 slots toward it
        assert np.array_equal(out.a_prime[: n - 10], a0[10:])
        assert np.all(out.a_prime[n - 10 :] == 0.0)
        # outgoing cells moved 10 slots away; the first 10 are new
        assert np.array_equal(out.b_prime[10:], b0[: n - 10])

    @pytest.mark.parametrize("cells, dx", [(200, 0.02), (199, 0.01)],
                             ids=["other-dx", "other-cell-count"])
    def test_field_on_another_grid_refused(self, cells, dx):
        # stepped with the config's dt but summed with its own dx, the
        # other-dx field's energy ledger would drift by 1.7e-3 per unit
        # time, against 5e-17 on the config's grid
        field = gaussian_field(np.random.default_rng(5), cells, dx)
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=3.0, load=CAP)
        with pytest.raises(ValueError) as info:
            run_line(cfg, field)
        assert str(info.value) == (f"field has {cells} cells at dx = {dx}, "
                                   "config wants 200 cells at dx = 0.01")

    def test_unknown_convention_refused(self):
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=1.0, load=CAP)
        with pytest.raises(ValueError, match="unknown convention 'rope'"):
            run_line(cfg, bump_field(2.0, 0.01), convention="rope")

    def test_input_field_not_mutated(self):
        field = bump_field(4.0, 0.02)
        snapshot = field.a_prime.copy()
        cfg = LineConfig(dx=0.02, x_max=4.0, t_max=2.0, load=CAP)
        run_line(cfg, field)
        assert np.array_equal(field.a_prime, snapshot)


class TestEnergyLedger:
    @pytest.mark.parametrize("load", [CAP, TANK, CAP_TANK])
    def test_open_end_conserves_with_radiation_tally(self, load):
        rng = np.random.default_rng(23)
        field = gaussian_field(rng, 200, dx=0.01, sigma=0.5)
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=3.5, load=load)
        _, trace = run_line(cfg, field)
        assert energy_drift(trace) < 1e-12

    def test_shorted_end_conserves_through_reflections(self):
        rng = np.random.default_rng(29)
        field = gaussian_field(rng, 200, dx=0.01, sigma=0.5)
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=10.0, load=TANK,
                         far_end="shorted", reflection_free=False)
        out, trace = run_line(cfg, field)
        assert energy_drift(trace) < 1e-12
        assert out.radiated == 0.0

    def test_open_end_actually_radiates(self):
        field = bump_field(2.0, 0.01, center=1.0, width=0.02)
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=3.5, load=CAP)
        out, trace = run_line(cfg, field)
        assert out.radiated > 0.0
        assert energy_drift(trace) < 1e-12

    def test_reflection_guard_trips_before_reentry(self):
        # Outgoing data near the far end bounces long before 2 x_max.
        n = 200
        b0 = np.zeros(n)
        b0[100:110] = 1.0
        field = WaveField(np.zeros(n), b0, 0.01)
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=3.5, load=CAP,
                         far_end="shorted")
        with pytest.raises(ReflectionWindowError):
            run_line(cfg, field)


def _coupler(load, n_cells, far_end="open", reflection_free=True):
    """(config, pair, obs) of a line of n_cells at dx = 0.01: the
    arguments propagate takes after the field and step count."""
    config = LineConfig(dx=0.01, x_max=n_cells * 0.01, t_max=0.01, load=load,
                        far_end=far_end, reflection_free=reflection_free)
    return config, close_loops(load), Observable.build(load, load.ss.c, 0.0)


class TestDelayEngine:
    """The delay-line engine against the tape-shifting oracle."""

    @staticmethod
    def assert_matches_oracle(field, steps, boundary, xi0=None):
        out, trace = propagate(field, steps, *boundary, xi0=xi0)
        ref_out, ref = _reference_propagate(field, steps, *boundary, xi0=xi0)
        if boundary[0].far_end == "open":
            assert np.array_equal(trace.xi, ref.xi)
            assert np.array_equal(trace.w, ref.w)
        assert np.array_equal(trace.t_grid, ref.t_grid)
        for got, want in [
            (trace.xi, ref.xi), (trace.w, ref.w), (trace.w_bar, ref.w_bar),
            (trace.y, ref.y), (trace.energy, ref.energy),
            (out.a_prime, ref_out.a_prime), (out.b_prime, ref_out.b_prime),
            (np.float64(out.radiated), np.float64(ref_out.radiated)),
        ]:
            assert got.shape == want.shape
            err = np.max(np.abs(got - want), initial=0.0)
            assert err <= 1e-12 * np.max(np.abs(want), initial=0.0)
        return out, trace

    @pytest.mark.parametrize("load", [CAP, CAP_TANK], ids=["dim1", "dim3"])
    def test_open_noise_runs(self, load):
        rng = np.random.default_rng(43)
        field = gaussian_field(rng, 150, dx=0.01, sigma=0.5)
        self.assert_matches_oracle(field, 290, _coupler(load, 150))

    def test_open_run_past_the_reflection_window(self):
        rng = np.random.default_rng(44)
        field = gaussian_field(rng, 20, dx=0.01, sigma=0.5)
        boundary = _coupler(CAP_TANK, 20, reflection_free=False)
        self.assert_matches_oracle(field, 135, boundary)

    @pytest.mark.parametrize("n_cells, steps", [(2, 23), (7, 95)])
    def test_shorted_far_end_with_reflections(self, n_cells, steps):
        rng = np.random.default_rng(47)
        field = gaussian_field(rng, n_cells, dx=0.01, sigma=0.5)
        boundary = _coupler(CAP_TANK, n_cells, far_end="shorted",
                            reflection_free=False)
        self.assert_matches_oracle(field, steps, boundary)

    @pytest.mark.parametrize("far_end", ["open", "shorted"])
    def test_initial_state_and_radiated_tally(self, far_end):
        rng = np.random.default_rng(53)
        a, b = rng.standard_normal((2, 30))
        field = WaveField(a, b, 0.01, radiated=0.25)
        boundary = _coupler(CAP_TANK, 30, far_end=far_end,
                            reflection_free=False)
        out, _ = self.assert_matches_oracle(field, 70, boundary,
                                            xi0=[0.3, -1.2, 0.8])
        assert (out.radiated > 0.25) == (far_end == "open")

    def test_zero_steps(self):
        rng = np.random.default_rng(59)
        field = gaussian_field(rng, 12, dx=0.01, sigma=0.5)
        out, trace = self.assert_matches_oracle(field, 0, _coupler(TANK, 12),
                                                xi0=[0.5, -0.5])
        assert trace.xi.shape == (1, 2)
        assert np.array_equal(out.a_prime, field.a_prime)
        assert np.array_equal(out.b_prime, field.b_prime)

    @pytest.mark.parametrize("outgoing", [True, False],
                             ids=["initial-tape", "emitted-cell"])
    def test_guard_message_matches_oracle(self, outgoing):
        # A cell of the initial outgoing tape reaches the far end before
        # the load's first emission does, or (b' = 0) the emission does.
        n = 200
        b0 = np.zeros(n)
        if outgoing:
            b0[100:110] = 1.0
        field = WaveField(bump_field(2.0, 0.01, center=0.3).a_prime, b0, 0.01)
        boundary = _coupler(CAP, n, far_end="shorted")
        with pytest.raises(ReflectionWindowError) as ref:
            _reference_propagate(field, 350, *boundary)
        with pytest.raises(ReflectionWindowError) as got:
            propagate(field, 350, *boundary)
        assert str(got.value) == str(ref.value)
        assert f"step {91 if outgoing else 201} " in str(got.value)


@pytest.fixture(scope="module")
def tank_trace():
    field = bump_field(26.0, 0.01)
    cfg = LineConfig(dx=0.01, x_max=26.0, t_max=25.0, load=TANK)
    _, trace = run_line(cfg, field)
    return trace


@pytest.fixture(scope="module")
def tank_run():
    field = bump_field(8.0, 0.01)
    cfg = LineConfig(dx=0.01, x_max=8.0, t_max=6.0, load=TANK)
    pair = close_loops(TANK)
    obs = Observable.build(TANK, TANK.ss.c, 0.0)
    _, trace = run_line(cfg, field)
    return pair, obs, trace


class TestDecayProbe:
    def test_capacitor_relaxes_at_unit_rate(self):
        field = bump_field(26.0, 0.01)
        cfg = LineConfig(dx=0.01, x_max=26.0, t_max=25.0, load=CAP)
        _, trace = run_line(cfg, field)
        rate = decay_rate_probe(trace, (12.0, 24.0))
        assert rate == pytest.approx(-1.0, rel=0.05)

    def test_tank_relaxes_at_half_rate(self, tank_trace):
        rate = decay_rate_probe(tank_trace, (12.0, 24.0))
        assert rate == pytest.approx(-0.5, rel=0.05)

    def test_contaminated_window_is_refused(self, tank_trace):
        with pytest.raises(ContaminatedWindowError):
            decay_rate_probe(tank_trace, (1.0, 10.0))

    def test_zero_state_is_refused(self):
        n = 100
        field = WaveField(np.zeros(n), np.zeros(n), 0.01)
        cfg = LineConfig(dx=0.01, x_max=1.0, t_max=1.0, load=TANK)
        _, trace = run_line(cfg, field)
        with pytest.raises(DegenerateProbeError):
            decay_rate_probe(trace, (0.2, 0.8))

    def test_window_validation(self, tank_trace):
        with pytest.raises(ValueError):
            decay_rate_probe(tank_trace, (5.0, 5.0))
        with pytest.raises(ValueError):
            decay_rate_probe(tank_trace, (12.0, 12.015))


class TestReducedModels:
    def test_forward_model_matches_bitwise(self, tank_run):
        pair, obs, trace = tank_run
        xi, y = reduced_forward(pair, obs, trace.w, np.zeros(2), 0.01)
        assert np.array_equal(xi, trace.xi)
        assert np.max(np.abs(y - trace.y)) < 1e-12

    def test_backward_model_recovers_trajectory(self, tank_run):
        pair, obs, trace = tank_run
        xi, _ = reduced_backward(pair, obs, trace.w_bar, trace.xi[-1], 0.01)
        scale = np.max(np.abs(trace.xi))
        assert np.max(np.abs(xi - trace.xi)) < 1e-9 * scale

    def test_backward_model_string_convention(self):
        field = bump_field(8.0, 0.01)
        cfg = LineConfig(dx=0.01, x_max=8.0, t_max=6.0, load=TANK)
        pair = close_loops(TANK)
        obs = Observable.build(TANK, TANK.ss.c, 0.0)
        _, trace = run_line(cfg, field, convention="string")
        xi, _ = reduced_backward(pair, obs, trace.w_bar, trace.xi[-1],
                                 0.01, convention="string")
        scale = np.max(np.abs(trace.xi))
        assert np.max(np.abs(xi - trace.xi)) < 1e-9 * scale

    def test_conventions_share_state_trajectory(self):
        field = bump_field(8.0, 0.01)
        cfg = LineConfig(dx=0.01, x_max=8.0, t_max=6.0, load=TANK)
        _, line_tr = run_line(cfg, field)
        _, str_tr = run_line(cfg, field, convention="string")
        assert np.array_equal(line_tr.xi, str_tr.xi)
        assert np.array_equal(line_tr.w_bar, -str_tr.w_bar)

    def test_noise_round_trip(self):
        rng = np.random.default_rng(41)
        field = gaussian_field(rng, 400, dx=0.01, sigma=1.0)
        cfg = LineConfig(dx=0.01, x_max=4.0, t_max=3.0, load=CAP_TANK)
        pair = close_loops(CAP_TANK)
        obs = Observable.build(CAP_TANK, CAP_TANK.ss.c, 0.0)
        _, trace = run_line(cfg, field)
        fwd, _ = reduced_forward(pair, obs, trace.w, np.zeros(3), 0.01)
        bwd, _ = reduced_backward(pair, obs, trace.w_bar, trace.xi[-1], 0.01)
        scale = np.max(np.abs(trace.xi))
        assert np.array_equal(fwd, trace.xi)
        assert np.max(np.abs(bwd - trace.xi)) < 1e-9 * scale

    def test_dimension_41_load_round_trip(self):
        # 20 tanks: past DEGREE_CAP, so this runs only because nothing on
        # the coupling or line path expands a polynomial
        load = foster_realize(
            FosterSpec(1.0, tuple((1.0, 1.0 + 0.5 * i) for i in range(20))))
        cfg = LineConfig(dx=1e-3, x_max=11.0, t_max=20.0, load=load)
        pair = close_loops(load)
        obs = Observable.build(load, load.ss.c, 0.0)
        _, trace = run_line(cfg, bump_field(11.0, 1e-3), obs=obs)
        fwd, _ = reduced_forward(pair, obs, trace.w, np.zeros(41), cfg.dt)
        bwd, _ = reduced_backward(pair, obs, trace.w_bar, trace.xi[-1],
                                  cfg.dt)
        assert load.dim == 41 and cfg.n_steps >= 20_000
        assert energy_drift(trace) <= 1e-9
        assert np.max(np.abs(fwd - trace.xi)) <= 1e-6
        assert np.max(np.abs(bwd - trace.xi)) <= 1e-6

    def test_rejects_empty_series(self):
        pair = close_loops(TANK)
        obs = Observable.build(TANK, TANK.ss.c, 0.0)
        with pytest.raises(ValueError):
            reduced_forward(pair, obs, np.empty(0), np.zeros(2), 0.01)
        with pytest.raises(ValueError):
            reduced_backward(pair, obs, np.empty(0), np.zeros(2), 0.01)
        with pytest.raises(ValueError):
            reduced_backward(pair, obs, np.ones(5), np.zeros(2), 0.01,
                             convention="rope")


class TestTraceExport:
    def test_csv_layout_and_precision(self):
        field = bump_field(2.0, 0.01)
        cfg = LineConfig(dx=0.01, x_max=2.0, t_max=1.0, load=TANK)
        _, trace = run_line(cfg, field)
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,xi_1,xi_2,y,w,wbar"
        assert len(lines) == trace.t_grid.size + 1
        probe = lines[37].split(",")
        m = 36
        assert float(probe[0]) == trace.t_grid[m]
        assert float(probe[1]) == trace.xi[m, 0]
        assert float(probe[5]) == trace.w_bar[m]
        rows = zip(trace.t_grid, *trace.xi.T, trace.y, trace.w, trace.w_bar)
        expected = "".join(",".join("%.17g" % x for x in row) + "\n"
                           for row in rows)
        assert buf.getvalue() == lines[0] + "\n" + expected

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3])
    def test_block_writer_matches_row_writer(self, rows):
        table = np.random.default_rng(rows).standard_normal((rows, 5))
        specials = [np.inf, -np.inf, np.nan, -0.0, 5e-324, -2.2e-308, 1e308]
        table.ravel()[:len(specials)] = specials[:table.size]
        columns = (table[:, 0], table[:, 1:])
        buf = io.StringIO()
        write_csv(buf, "a,b,c,d,e", columns)
        expected = "".join(",".join(["%.17g"] * 5) % tuple(row) + "\n"
                           for row in table)
        assert buf.getvalue() == "a,b,c,d,e\n" + expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_energy_conserved_for_random_loads(seed):
    rng = np.random.default_rng(seed)
    load = foster_realize(random_foster(rng, max_tanks=2))
    field = gaussian_field(rng, 120, dx=0.02, sigma=0.8)
    cfg = LineConfig(dx=0.02, x_max=2.4, t_max=4.0, load=load)
    _, trace = run_line(cfg, field)
    assert energy_drift(trace) < 1e-11
