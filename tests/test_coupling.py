"""Feedback pair, scattering routes, observable invariance, synthesis.

Hand oracles: for the capacitor load (A=0, b=c=1) the loops close to
Gamma = [-1], Gamma_bar = [+1] and K = (1-s)/(1+s); for the unit tank
the closed-loop characteristic polynomials are s^2+s+1 and s^2-s+1 and
K = -(s^2-s+1)/(s^2+s+1). All were derived by scalar algebra before
the implementation.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wavebath.coupling
import wavebath.ratfun
import wavebath.realization
from leverrier import (match_observable_to_factor, scattering_K_statespace,
                       transfer_function)
from wavebath.coupling import (
    CoupledModelPair,
    InvalidLoadError,
    Observable,
    SynthesisStageError,
    TrivialObservableError,
    allpass_residual,
    close_loops,
    coupling_report,
    invert_K_to_Z,
    mirror_residual,
    observable_transfers,
    run_synthesis,
    scattering_K,
)
from wavebath.ratfun import (
    MATCH_TOL,
    DegreeCapError,
    Polynomial,
    RationalFunction,
    SpectralFactorError,
    _deflate_both,
    is_inner,
    is_lossless_pr,
    spectral_factor,
)
from wavebath.realization import (
    FosterSpec,
    ImproperImpedanceError,
    LosslessRealization,
    StateSpace,
    foster_from_rational,
    foster_realize,
    foster_to_rational,
    random_foster,
)

CAP = foster_realize(FosterSpec(k0=1.0))
TANK = foster_realize(FosterSpec(tanks=((0.5, 1.0),)))
CAP_TANK = foster_realize(FosterSpec(k0=1.0, tanks=((0.5, 1.0),)))

K_CAP = RationalFunction([1.0, -1.0], [1.0, 1.0])
K_TANK = RationalFunction([-1.0, 1.0, -1.0], [1.0, 1.0, 1.0])


def ceiling_specs(seed, n_tanks, count=20):
    """The load-size family of ROADMAP item 2: k0 and residues from
    U(0.2, 2), the first tank at U(0.6, 1.0), tank gaps 0.3 + U(0, 0.4)."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        k0 = float(rng.uniform(0.2, 2.0))
        w = float(rng.uniform(0.6, 1.0))
        tanks = []
        for _ in range(n_tanks):
            tanks.append((float(rng.uniform(0.2, 2.0)), w))
            w += 0.3 + float(rng.uniform(0.0, 0.4))
        specs.append(FosterSpec(k0, tuple(tanks)))
    return specs


def ceiling_family(seed, n_tanks, count=20):
    """The realized loads of ceiling_specs."""
    return [foster_realize(spec)
            for spec in ceiling_specs(seed, n_tanks, count)]


def exact_adjugate(A, b):
    """Coefficients of adj(sI - A) b (n vectors) and of det(sI - A),
    highest degree first, as Fractions: the Leverrier iteration
    B_k = A B_(k-1) + a_k I in exact rational arithmetic on the float
    entries. A float is an integer over a power of two, so the iteration
    runs on integer matrices over one common denominator."""
    n = len(b)
    entries = [Fraction(x) for x in A.ravel().tolist()]
    scale = max(x.denominator for x in entries)
    A = np.array([int(x * scale) for x in entries], dtype=object).reshape(n, n)
    b = np.array([Fraction(x) for x in b.tolist()], dtype=object)
    eye = np.identity(n, dtype=int).astype(object)
    B, denom = eye, 1  # B_k = B / denom
    adj, det = [], [Fraction(1)]
    for k in range(1, n + 1):
        adj.append(B.dot(b) / denom)
        AB = A.dot(B)
        trace = sum(AB.diagonal())
        det.append(Fraction(-trace, k * scale * denom))
        B = k * AB - trace * eye
        denom *= k * scale
    return adj, det


def exact_leverrier(A, b, c):
    """Numerator and denominator coefficients (lowest degree first) of
    c (sI - A)^{-1} b by exact_adjugate, rounded once at the end."""
    adj, det = exact_adjugate(A, b)
    c = np.array([Fraction(x) for x in c.tolist()], dtype=object)
    return (np.array([float(c.dot(col)) for col in adj[::-1]]),
            np.array([float(x) for x in det[::-1]]))


def blind_row(pair, seed=0):
    """A random state row orthogonal to the eigenvector of the forward
    pole with the largest imaginary part: blind to that tank's mode."""
    lam, V = np.linalg.eig(pair.gamma)
    v = V[:, int(np.argmax(lam.imag))]
    Q = np.linalg.qr(np.vstack([v.real, v.imag]).T)[0]
    r = np.random.default_rng(seed).normal(size=pair.dim)
    return r - Q @ (Q.T @ r)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def port_transfer_two_products(basis, h, d):
    """Reference for _port_transfer: the rows' values and slopes at the
    poles by Horner's rule, then one product with each, the pole test's
    threshold formed per call and the adjugate part trimmed through a
    Polynomial of its own. Returns the transfer and the shared-pole
    mask."""
    n = h.size
    values = np.zeros((n + 1, n), dtype=complex)
    slopes = np.zeros_like(values)
    for c in basis.rows.T[::-1]:
        slopes = slopes * basis.poles + values
        values = values * basis.poles + c[:, None]
    x = np.append(h, d)
    adj = Polynomial(h @ basis.rows[:-1], rel_tol=1e-13).coeffs
    num = d * basis.rows[-1]
    num[: adj.size] += adj
    num, den = Polynomial(num), basis.den
    shared = (np.abs(x @ values)
              <= MATCH_TOL * (1.0 + np.abs(basis.poles))
              * np.abs(x @ slopes))
    if shared.any():
        num, den = _deflate_both(num, den, basis.poles[shared])
    return RationalFunction(num, den, reduce=False), shared


def determinant_lemma_transfers(pair, obs):
    """W and Wbar of one observable by the per-observable route: the
    numerator h adj(sI - Gamma) g = det(sI - Gamma + g h^T) - D(s) from
    one eigendecomposition per side, and the poles the numerator
    vanishes on to first order deflated after Horner evaluation."""
    den = pair.K.den
    den_bar = den.reflected().scaled(-1.0 if pair.dim % 2 else 1.0)
    out = []
    for gamma, h, D, poles in ((pair.gamma, obs.h, den, pair.poles),
                               (pair.gamma_bar, obs.h_bar, den_bar,
                                -pair.poles)):
        shifted = Polynomial.from_roots(
            np.linalg.eigvals(gamma - np.outer(pair.input_gain, h)))
        num = Polynomial(shifted.coeffs - D.coeffs, rel_tol=1e-13)
        if obs.d != 0.0:
            num = num + D.scaled(2.0 * obs.d)
        slope = np.abs(num.derivative()(poles))
        shared = (np.abs(num(poles))
                  <= MATCH_TOL * (1.0 + np.abs(poles)) * slope)
        if shared.any():
            num, D = _deflate_both(num, D, poles[shared])
        out.append(RationalFunction(num, D, reduce=False))
    return out[0], -out[1]


def identity_residuals(pair):
    """(|Gamma_bar + Gamma^T|, |Gamma + Gamma^T + g g^T / 2|) over the
    matrix scale."""
    g, gb, gain = pair.gamma, pair.gamma_bar, pair.input_gain
    half_ggt = 0.5 * np.outer(gain, gain)
    scale = max(np.max(np.abs(g)), np.max(np.abs(gb)),
                np.max(np.abs(half_ggt)))
    return (np.max(np.abs(gb + g.T)) / scale,
            np.max(np.abs(g + g.T + half_ggt)) / scale)


class TestCloseLoops:
    def test_capacitor_matrices(self):
        pair = close_loops(CAP)
        assert pair.gamma.tolist() == [[-1.0]]
        assert pair.gamma_bar.tolist() == [[1.0]]
        assert pair.input_gain.tolist() == [2.0]
        assert pair.K.close_to(K_CAP, tol=1e-12)

    def test_tank_spectra(self):
        pair = close_loops(TANK)
        got_f = sorted(np.linalg.eigvals(pair.gamma), key=lambda z: z.imag)
        want_f = [complex(-0.5, -np.sqrt(3) / 2), complex(-0.5, np.sqrt(3) / 2)]
        np.testing.assert_allclose(got_f, want_f, atol=1e-12)
        got_b = sorted(np.linalg.eigvals(pair.gamma_bar), key=lambda z: z.imag)
        want_b = [complex(0.5, -np.sqrt(3) / 2), complex(0.5, np.sqrt(3) / 2)]
        np.testing.assert_allclose(got_b, want_b, atol=1e-12)

    def test_sum_recovers_twice_a(self):
        for load in (CAP, TANK, CAP_TANK):
            pair = close_loops(load)
            np.testing.assert_allclose(
                pair.gamma + pair.gamma_bar, 2.0 * load.ss.A, atol=1e-12
            )

    def test_mirror_property_random_loads(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            load = foster_realize(random_foster(rng, max_tanks=3))
            pair = close_loops(load)
            eigs = np.linalg.eigvals(pair.gamma)
            assert np.all(eigs.real < 0)
            assert mirror_residual(pair) < 1e-8 * max(
                1.0, np.max(np.abs(eigs))
            )

    def test_invalid_load_rejected(self):
        # A + A^T = 0.1 against max |A| = 0.05: refused before coupling
        with pytest.raises(ValueError, match="lyapunov 2.000e\\+00"):
            LosslessRealization(StateSpace([[0.05]], [1.0], [1.0]))

    def test_pair_invariants_enforced(self):
        with pytest.raises(ValueError):
            CoupledModelPair(
                np.array([[1.0]]), np.array([[-1.0]]), np.array([2.0])
            )
        with pytest.raises(ValueError):
            CoupledModelPair(
                np.array([[-1.0]]), np.array([[2.0]]), np.array([2.0])
            )
        # a stable mirror pair whose gain does not match its damping
        with pytest.raises(ValueError):
            CoupledModelPair(
                np.array([[-1.0]]), np.array([[1.0]]), np.array([3.0])
            )
        # the identities hold to 1e-12 of the scale, not to 1e-9
        with pytest.raises(ValueError):
            CoupledModelPair(
                np.array([[-1.0]]), np.array([[1.0 + 1e-9]]), np.array([2.0])
            )
        # both identities hold, but the pole -1e-10 is inside the margin
        with pytest.raises(ValueError, match="lossless-minimal"):
            CoupledModelPair(
                np.array([[-1e-10]]), np.array([[1e-10]]), np.array([2e-5])
            )


class TestIdentityCertificate:
    @pytest.mark.parametrize("n_tanks", [6, 8, 12, 20],
                             ids=["dim13", "dim17", "dim25", "dim41"])
    def test_ceiling_family_couples(self, n_tanks):
        for load in ceiling_family(7, n_tanks):
            assert load.dim == 2 * n_tanks + 1
            pair = close_loops(load)
            assert max(identity_residuals(pair)) <= 1e-12
            if load.dim <= 13:
                K_z = scattering_K(transfer_function(load.ss))
                assert pair.K.close_to(K_z, tol=1e-12)
            if load.dim <= 25:
                # checked and inverted with no product of degree 2n
                assert is_inner(pair.K)
                back = scattering_K(invert_K_to_Z(pair.K))
                assert back.close_to(pair.K, tol=1e-12)

    def test_matrices_are_the_feedback_forms(self):
        for load in (CAP, TANK, CAP_TANK, *ceiling_family(3, 4, count=5)):
            A, b, c = load.ss.A, load.ss.b, load.ss.c
            pair = close_loops(load)
            assert np.array_equal(pair.gamma, A - np.outer(b, c))
            assert np.array_equal(pair.gamma_bar, A + np.outer(b, c))
            assert np.array_equal(pair.input_gain, 2.0 * b)

    def test_coupling_path_runs_no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle called on the coupling path")

        for module, name in [
            (wavebath.coupling, "is_inner"),
            (wavebath.ratfun, "is_inner"),
            (wavebath.realization, "verify_lossless_certificate"),
            (wavebath.realization, "_pbh_margin"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        eig_calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals",
            lambda M: eig_calls.append(M.shape) or eigvals(M))
        for spec in (FosterSpec(k0=1.0),
                     FosterSpec(k0=0.5, tanks=((1.0, 2.0), (0.3, 3.1)))):
            eig_calls.clear()
            pair = close_loops(foster_realize(spec))
            # the poles are the one eigendecomposition: the load's
            # certificate computes no spectrum, and none is computed a
            # second time to be matched against the first
            assert eig_calls == [pair.gamma.shape]
            assert mirror_residual(pair) == 0.0

    def test_package_source_has_no_leverrier_oracle(self):
        # static: the oracles live in the tests (leverrier.py, and the
        # spring matrix in test_lattice.py), and the functions that only
        # tests read are deleted; no library module defines, imports or
        # names them, lazily included
        oracles = {"transfer_function", "scattering_K_statespace",
                   "match_observable_to_factor", "_dens_match",
                   "dirichlet_potential", "autonomous_flow",
                   "stored_energy", "symbol_coeffs", "to_acov_csv",
                   "_as_rational", "_certified", "max_real_eig"}
        src = Path(wavebath.coupling.__file__).resolve().parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [name for alias in node.names
                             for name in (*alias.name.split("."),
                                          alias.asname)]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in names if name in oracles]
        assert found == []

    def test_mirror_residual_is_the_identity_residual(self):
        pair = close_loops(CAP_TANK)
        gamma_bar = pair.gamma_bar.copy()
        gamma_bar[0, 1] += 3e-14
        nudged = CoupledModelPair(pair.gamma, gamma_bar, pair.input_gain)
        assert mirror_residual(nudged) == float(
            np.max(np.abs(gamma_bar + pair.gamma.T)))
        assert mirror_residual(nudged) > 0.0

    def test_non_minimal_load_refused_in_one_line(self):
        load = foster_realize(
            FosterSpec.from_text("k0=1; tank=1,1; tank=1,1.0000000001"))
        with pytest.raises(InvalidLoadError, match="lossless-minimal") as err:
            close_loops(load)
        assert "\n" not in str(err.value)

    def test_coefficients_are_expanded_on_demand(self):
        pair = close_loops(ceiling_family(11, 20, count=1)[0])
        assert pair.poles.shape == (41,)
        with pytest.raises(DegreeCapError):
            pair.K
        small = close_loops(CAP_TANK)
        assert small.K is small.K
        assert is_inner(small.K)
        assert small.K.at_infinity() == -1.0
        # the paraconjugate numerator: |num| and |den| agree coefficientwise
        assert np.array_equal(np.abs(small.K.num.coeffs),
                              np.abs(small.K.den.coeffs))

    def test_symmetry_checks_and_moebius_maps_form_no_product(
            self, monkeypatch):
        spec = ceiling_specs(7, 6, count=1)[0]
        Z = foster_to_rational(spec)
        K = close_loops(foster_realize(spec)).K
        assert K.den.degree == 13
        not_even = RationalFunction([1.0], [1.0, 1e-3, 1.0])

        def refuse(*args):
            raise AssertionError("polynomial product formed")

        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        reductions = []
        cancel = wavebath.ratfun._cancel_common
        monkeypatch.setattr(
            wavebath.ratfun, "_cancel_common",
            lambda num, den: reductions.append(1) or cancel(num, den))
        assert is_inner(K)
        assert is_lossless_pr(Z)
        with pytest.raises(SpectralFactorError, match="not an even"):
            spectral_factor(not_even)
        assert reductions == []
        K_z = scattering_K(Z)
        Z_k = invert_K_to_Z(K)
        assert reductions == []
        assert K_z.close_to(K, tol=1e-12)
        assert Z_k.close_to(Z, tol=1e-9)


class TestScatteringK:
    def test_capacitor(self):
        Z = RationalFunction([1.0], [0.0, 1.0])
        assert scattering_K(Z).close_to(K_CAP, tol=1e-12)

    def test_tank(self):
        Z = RationalFunction([0.0, 1.0], [1.0, 0.0, 1.0])
        assert scattering_K(Z).close_to(K_TANK, tol=1e-12)

    def test_limit_at_infinity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            Z = foster_to_rational(random_foster(rng))
            K = scattering_K(Z)
            assert K.at_infinity() == pytest.approx(-1.0, abs=1e-9)
            assert is_inner(K)

    def test_non_lossless_rejected(self):
        with pytest.raises(ValueError):
            scattering_K(RationalFunction([1.0], [1.0]))
        with pytest.raises(ValueError):
            scattering_K(RationalFunction([1.0], [1.0, 1.0]))

    def test_all_pass_on_log_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            Z = foster_to_rational(random_foster(rng))
            assert allpass_residual(scattering_K(Z)) < 1e-8


class TestScatteringStateSpace:
    def test_capacitor_pole_zero_placement(self):
        pair = close_loops(CAP)
        K = scattering_K_statespace(pair, CAP)
        assert K.close_to(K_CAP, tol=1e-10)
        np.testing.assert_allclose(K.poles(), [-1.0], atol=1e-12)
        np.testing.assert_allclose(K.zeros(), [1.0], atol=1e-12)

    def test_tank(self):
        pair = close_loops(TANK)
        assert scattering_K_statespace(pair, TANK).close_to(K_TANK, tol=1e-10)

    def test_routes_agree_random_loads(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            load = foster_realize(random_foster(rng, max_tanks=3))
            pair = close_loops(load)
            K1 = pair.K
            K2 = scattering_K_statespace(pair, load)
            assert K2.close_to(K1, tol=1e-8)

    def test_feedback_does_not_move_zeros(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            load = foster_realize(random_foster(rng, max_tanks=2))
            pair = close_loops(load)
            fwd = transfer_function(
                StateSpace(pair.gamma, load.ss.b, load.ss.c)
            )
            bwd = transfer_function(
                StateSpace(pair.gamma_bar, load.ss.b, load.ss.c)
            )
            # zeros sit on the axis; order by frequency so 1e-14 real
            # noise cannot scramble the pairing
            zf = sorted(fwd.zeros(), key=lambda z: (z.imag, z.real))
            zb = sorted(bwd.zeros(), key=lambda z: (z.imag, z.real))
            np.testing.assert_allclose(zf, zb, atol=1e-7)


class TestObservableTransfers:
    def test_port_voltage_capacitor(self):
        pair = close_loops(CAP)
        obs = Observable.build(CAP, CAP.ss.c, 0.0)
        W, Wbar = observable_transfers(pair, obs)
        assert W.close_to(RationalFunction([2.0], [1.0, 1.0]), tol=1e-12)
        assert Wbar.close_to(RationalFunction([2.0], [1.0, -1.0]), tol=1e-12)
        assert (W / Wbar).close_to(K_CAP, tol=1e-10)

    def test_wave_passthrough_observable(self):
        # y = v0 + i0 equals twice the incoming wave: flat forward gain
        for load in (CAP, TANK, CAP_TANK, *ceiling_family(7, 6, count=2)):
            pair = close_loops(load)
            obs = Observable.build(load, load.ss.c, 1.0)
            W, Wbar = observable_transfers(pair, obs)
            assert W.close_to(RationalFunction([2.0], [1.0]), tol=1e-9)
            assert (W / Wbar).close_to(pair.K, tol=1e-8)

    def test_invariance_over_random_observables(self):
        rng = np.random.default_rng(2024)
        for load in (CAP, TANK, CAP_TANK):
            pair = close_loops(load)
            for _ in range(20):
                c = rng.normal(size=load.dim)
                d = float(rng.normal())
                obs = Observable.build(load, c, d)
                W, Wbar = observable_transfers(pair, obs)
                assert (W / Wbar).close_to(pair.K, tol=1e-8)

    def test_matches_leverrier_oracle(self):
        # the float Leverrier oracle itself drifts to ~1e-9 at dimension
        # 9, so it is compared up to dimension 7; the exact-arithmetic
        # oracle below takes the larger loads
        rng = np.random.default_rng(17)
        for _ in range(60):
            load = foster_realize(random_foster(rng, max_tanks=3))
            pair = close_loops(load)
            for _ in range(3):
                obs = Observable.build(load, rng.normal(size=load.dim),
                                       float(rng.normal()))
                W, Wbar = observable_transfers(pair, obs)
                want = transfer_function(StateSpace(
                    pair.gamma, pair.input_gain, obs.h, 2.0 * obs.d))
                want_bar = -transfer_function(StateSpace(
                    pair.gamma_bar, pair.input_gain, obs.h_bar, 2.0 * obs.d))
                for got, ref in ((W, want), (Wbar, want_bar)):
                    assert got.num.degree == ref.num.degree
                    assert got.den.degree == ref.den.degree
                    assert got.close_to(ref, tol=1e-10)

    @pytest.mark.parametrize("n_tanks", [4, 5, 6],
                             ids=["dim9", "dim11", "dim13"])
    def test_matches_exact_arithmetic_oracle(self, n_tanks):
        load = ceiling_family(7, n_tanks, count=1)[0]
        pair = close_loops(load)
        rng = np.random.default_rng(n_tanks)
        obs = Observable.build(load, rng.normal(size=load.dim), 0.0)
        W, Wbar = observable_transfers(pair, obs)
        for got, gamma, h, sign in ((W, pair.gamma, obs.h, 1.0),
                                    (Wbar, pair.gamma_bar, obs.h_bar, -1.0)):
            num, den = exact_leverrier(gamma, pair.input_gain, h)
            scale = max(np.max(np.abs(num)), np.max(np.abs(den)))
            assert got.num.coeffs.size == num.size
            assert np.max(np.abs(got.num.coeffs - sign * num)) <= 1e-12 * scale
            assert np.max(np.abs(got.den.coeffs - den)) <= 1e-12 * scale

    @pytest.mark.parametrize("n_tanks", [5, 6, 8, 12],
                             ids=["dim11", "dim13", "dim17", "dim25"])
    def test_quotient_is_K_past_the_leverrier_ceiling(self, n_tanks):
        rng = np.random.default_rng(n_tanks)
        for load in ceiling_family(7, n_tanks, count=5):
            pair = close_loops(load)
            for _ in range(4):
                obs = Observable.build(load, rng.normal(size=load.dim),
                                       float(rng.normal()))
                W, Wbar = observable_transfers(pair, obs)
                quotient = W / Wbar
                assert quotient.num.degree == pair.K.num.degree
                assert quotient.den.degree == pair.K.den.degree
                assert quotient.close_to(pair.K, tol=1e-8)

    def test_blind_observable_reduces_like_root_matching(self):
        for load in (CAP_TANK, *ceiling_family(3, 3, count=3),
                     *ceiling_family(3, 6, count=1)):
            pair = close_loops(load)
            obs = Observable.build(load, blind_row(pair), 0.0)
            W, Wbar = observable_transfers(pair, obs)
            want = transfer_function(
                StateSpace(pair.gamma, pair.input_gain, obs.h, 0.0))
            want_bar = transfer_function(
                StateSpace(pair.gamma_bar, pair.input_gain, obs.h_bar, 0.0))
            assert W.den.degree == want.den.degree == load.dim - 2
            assert W.num.degree == want.num.degree
            assert Wbar.den.degree == want_bar.den.degree
            assert Wbar.num.degree == want_bar.num.degree
            assert (W / Wbar).close_to(pair.K, tol=1e-8)

    def test_transfers_run_no_leverrier_and_no_root_finding(self,
                                                             monkeypatch):
        load = ceiling_family(7, 6, count=1)[0]
        pair = close_loops(load)
        rng = np.random.default_rng(13)
        first, second = (Observable.build(load, rng.normal(size=load.dim), d)
                         for d in (0.3, -0.8))

        def refuse(*args, **kwargs):
            raise AssertionError("slow route called by observable_transfers")

        for module, name in [
            (wavebath.ratfun, "_cancel_common"),
            (np, "roots"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        eig_calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals",
            lambda M: eig_calls.append(M.shape) or eigvals(M))
        W, Wbar = observable_transfers(pair, first)
        # the first observable builds the pair's bases by a Hessenberg
        # reduction per side: the pair's poles stay its only
        # eigendecomposition
        assert eig_calls == []
        assert W.den.degree == Wbar.den.degree == 13
        assert (W / Wbar).close_to(pair.K, tol=1e-8)
        # a second observable reads the bases: no eigenproblem, no
        # evaluation of a numerator polynomial, and its quotient reads
        # the half-plane verdicts the first one's quotient left on the
        # shared denominators, so it runs no Routh test
        routh = []
        hurwitz = wavebath.ratfun._hurwitz_beyond
        monkeypatch.setattr(
            wavebath.ratfun, "_hurwitz_beyond",
            lambda c, sigma: routh.append(len(c)) or hurwitz(c, sigma))
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(Polynomial, "__call__", refuse)
        W2, Wbar2 = observable_transfers(pair, second)
        assert W2.den.degree == Wbar2.den.degree == 13
        quotient = W2 / Wbar2
        assert routh == []
        assert quotient.close_to(pair.K, tol=1e-8)

    @pytest.mark.parametrize(
        "spec", [*(ceiling_specs(1, n // 2, count=1)[0] for n in (5, 13, 25)),
                 FosterSpec(k0=0.0, tanks=((1.0, 1.0),))],
        ids=["dim5", "dim13", "dim25", "critically_damped_tank"])
    def test_basis_rows_match_exact_arithmetic(self, spec):
        # row i < n is e_i adj(sI - Gamma) g. The critically damped
        # tank's Gamma has a double pole at -1 and an eigenvector matrix
        # of condition number 1.3e8; the Householder reduction never
        # forms eigenvectors. The rows were within 4e-15 of the scale on
        # 60 ceiling-family loads of dimensions 5 and 13
        pair = close_loops(foster_realize(spec))
        n = pair.dim
        for basis, gamma, sign in zip(pair.transfer_bases,
                                      (pair.gamma, pair.gamma_bar),
                                      (1.0, -1.0)):
            assert np.all(basis.rows[:n, n] == 0.0)
            adj, _ = exact_adjugate(gamma, pair.input_gain)
            want = np.array([[float(x) for x in col]
                             for col in adj[::-1]]).T
            got = sign * basis.rows[:n, :n]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [*range(1, 14), 25])
    def test_basis_matches_the_per_observable_route(self, dim):
        # the per-observable determinant-lemma route is the oracle: one
        # eigendecomposition of Gamma - g h^T per side and observable
        spec = ceiling_specs(dim, dim // 2, count=1)[0]
        load = foster_realize(spec if dim % 2 else FosterSpec(0.0, spec.tanks))
        assert load.dim == dim
        pair = close_loops(load)
        rng = np.random.default_rng(dim)
        rows = [(rng.normal(size=dim), float(rng.normal())) for _ in range(4)]
        rows += [(rng.normal(size=dim), 0.0)]
        if dim > 2:
            rows += [(blind_row(pair, seed), d) for seed, d in ((1, 0.0),
                                                                (2, 0.6))]
        for h, d in rows:
            obs = Observable.build(load, h, d)
            got = observable_transfers(pair, obs)
            want = determinant_lemma_transfers(pair, obs)
            for a, b in zip(got, want):
                assert a.num.degree == b.num.degree
                assert a.den.degree == b.den.degree
                scale = max(b.num.max_abs_coeff(), b.den.max_abs_coeff())
                for p, q in ((a.num, b.num), (a.den, b.den)):
                    assert np.max(np.abs(p.coeffs - q.coeffs)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", range(1, 14))
    def test_port_transfer_matches_the_two_product_route(self, dim,
                                                         monkeypatch):
        # the stacked probe and its kept threshold against the route with
        # separate value and slope products: the same coefficient bits and
        # the same shared poles, on random, blind and d = 0 observables
        deflated = []
        deflate = wavebath.coupling._deflate_both
        monkeypatch.setattr(
            wavebath.coupling, "_deflate_both",
            lambda num, den, roots: deflated.append(roots)
            or deflate(num, den, roots))
        rng = np.random.default_rng(100 + dim)
        seen_shared = False
        for seed in range(3):
            spec = ceiling_specs(50 * dim + seed, dim // 2, count=1)[0]
            load = foster_realize(
                spec if dim % 2 else FosterSpec(0.0, spec.tanks))
            pair = close_loops(load)
            rows = [(rng.normal(size=dim), float(rng.normal())),
                    (rng.normal(size=dim), 0.0)]
            if dim > 2:
                rows += [(blind_row(pair, seed), 0.0),
                         (blind_row(pair, seed + 7), float(rng.normal()))]
            for h, d in rows:
                obs = Observable.build(load, h, d)
                for basis, row in zip(pair.transfer_bases,
                                      (obs.h, obs.h_bar)):
                    want, shared = port_transfer_two_products(basis, row, d)
                    deflated.clear()
                    got = wavebath.coupling._port_transfer(basis, row, d)
                    assert same_bits(got.num.coeffs, want.num.coeffs)
                    assert same_bits(got.den.coeffs, want.den.coeffs)
                    if shared.any():
                        seen_shared = True
                        assert len(deflated) == 1
                        assert same_bits(deflated[0], basis.poles[shared])
                    else:
                        assert deflated == []
        assert seen_shared == (dim > 2)

    def test_quotient_runs_no_root_matching(self, monkeypatch):
        loads = []
        for dim in range(1, 14):
            for spec in ceiling_specs(dim, dim // 2, count=2):
                loads.append(foster_realize(
                    spec if dim % 2 else FosterSpec(0.0, spec.tanks)))
        for n_tanks in (8, 12, 15):
            loads += ceiling_family(7, n_tanks, count=5)
        reductions = []
        cancel = wavebath.ratfun._cancel_common
        monkeypatch.setattr(
            wavebath.ratfun, "_cancel_common",
            lambda num, den: reductions.append(1) or cancel(num, den))
        rng = np.random.default_rng(31)
        for load in loads:
            pair = close_loops(load)
            for _ in range(4):
                obs = Observable.build(load, rng.normal(size=load.dim),
                                       float(rng.normal()))
                W, Wbar = observable_transfers(pair, obs)
                quotient = W / Wbar
                assert reductions == [], f"dimension {load.dim}"
                assert quotient.close_to(pair.K, tol=1e-8)

    def test_rows_satisfy_sum_rule(self):
        obs = Observable.build(TANK, [0.3, -1.2], 0.7)
        np.testing.assert_allclose(obs.h + obs.h_bar, 2 * obs.c, atol=1e-14)

    def test_trivial_observable_rejected(self):
        with pytest.raises(TrivialObservableError):
            Observable.build(TANK, [0.0, 0.0], 0.0)

    def test_constructor_refuses_the_trivial_observable(self):
        with pytest.raises(TrivialObservableError):
            Observable(np.zeros(2), np.zeros(2), 0.0)
        obs = Observable(np.ones(2), np.ones(2), 0.0)
        np.testing.assert_array_equal(obs.c, np.ones(2))


class TestInvertK:
    def test_capacitor_round(self):
        Z = invert_K_to_Z(K_CAP)
        assert Z.close_to(RationalFunction([1.0], [0.0, 1.0]), tol=1e-12)

    def test_tank_round(self):
        Z = invert_K_to_Z(K_TANK)
        assert Z.close_to(RationalFunction([0.0, 1.0], [1.0, 0.0, 1.0]),
                          tol=1e-12)

    def test_short_circuit_flagged(self):
        Z = invert_K_to_Z(RationalFunction([-1.0], [1.0]))
        assert Z.is_zero

    def test_wrong_sign_at_infinity_rejected(self):
        with pytest.raises(ImproperImpedanceError):
            invert_K_to_Z(RationalFunction([-1.0, 1.0], [1.0, 1.0]))
        with pytest.raises(ImproperImpedanceError):
            invert_K_to_Z(RationalFunction([1.0], [1.0]))

    def test_non_inner_rejected(self):
        with pytest.raises(ValueError):
            invert_K_to_Z(RationalFunction([1.0], [1.0, 1.0]))

    def test_round_trip_property(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            Z = foster_to_rational(random_foster(rng, max_tanks=3))
            back = invert_K_to_Z(scattering_K(Z))
            assert back.close_to(Z, tol=1e-8)
            assert is_lossless_pr(back)


def constant_numerator_spectrum(spec, gain=2.0):
    """Spectrum g^2 / ((D+N)(s) (D+N)(-s)) of a load given as FosterSpec."""
    Z = foster_to_rational(spec)
    DN = Z.den + Z.num
    den = DN * DN.reflected()
    sign = den.coeffs[0]
    # normalize to keep the zero-frequency value positive
    return RationalFunction(
        Polynomial([gain * gain * np.sign(sign)]), den, reduce=False
    )


# loads for the reduce=False audit: the unit capacitor plus tank and
# two dimension-13 loads
_SPECS = (FosterSpec(k0=1.0, tanks=((0.5, 1.0),)),
          *ceiling_specs(7, 6, count=2))


def _parts(*rats):
    return [(R.num, R.den) for R in rats]


def _K():
    return [close_loops(foster_realize(spec)).K for spec in _SPECS]


def _Z():
    return [foster_to_rational(spec) for spec in _SPECS]


def _port_transfers():
    out = []
    for spec in _SPECS:
        load = foster_realize(spec)
        pair = close_loops(load)
        rng = np.random.default_rng(load.dim)
        for h in (rng.normal(size=load.dim), blind_row(pair)):
            out += _parts(*observable_transfers(
                pair, Observable.build(load, h, 0.4)))
    return out


def _spectral_factors():
    out = []
    for spec in _SPECS:
        W, Wbar = spectral_factor(constant_numerator_spectrum(spec))
        out += _parts(W) + [(W.num * Wbar.num, W.den * Wbar.den)]
    return out


# every library construction with reduce=False, on representative inputs
REDUCE_FALSE_SITES = {
    "CoupledModelPair.K": lambda: _parts(*_K()),
    "_port_transfer": _port_transfers,
    "__neg__": lambda: _parts(*(-R for R in _K() + _Z())),
    "reflected": lambda: _parts(*(R.reflected() for R in _K() + _Z())),
    "spectral_factor": _spectral_factors,
    "foster_to_rational": lambda: _parts(*_Z()),
    "scattering_K": lambda: _parts(*map(scattering_K, _Z())),
    "invert_K_to_Z": lambda: _parts(*map(invert_K_to_Z, _K())),
}


@pytest.mark.parametrize("site", sorted(REDUCE_FALSE_SITES))
def test_reduce_false_site_is_already_reduced(site):
    for num, den in REDUCE_FALSE_SITES[site]():
        out = wavebath.ratfun._cancel_common(num, den)
        assert out[0] is num and out[1] is den


def test_loads_pass_runs_no_root_matching(monkeypatch):
    # the checks of one load in a perfbench `loads` pass, over _SPECS:
    # every construction on this path is proved coprime beforehand
    reductions = []
    cancel = wavebath.ratfun._cancel_common
    monkeypatch.setattr(
        wavebath.ratfun, "_cancel_common",
        lambda num, den: reductions.append(1) or cancel(num, den))
    rng = np.random.default_rng(5)
    for spec in _SPECS:
        load = foster_realize(spec)
        pair = close_loops(load)
        for _ in range(3):
            obs = Observable.build(load, rng.normal(size=load.dim),
                                   float(rng.normal()))
            W, Wbar = observable_transfers(pair, obs)
            assert (W / Wbar).close_to(pair.K, tol=1e-8)
        chain = run_synthesis(constant_numerator_spectrum(spec))
        assert chain.impedance.close_to(foster_to_rational(spec), tol=1e-7)
        back = scattering_K(invert_K_to_Z(chain.K))
        assert back.close_to(chain.K, tol=1e-8)
    assert reductions == []


def test_synthesis_finds_roots_once_per_certificate(monkeypatch):
    # acceptance 10's density for a dimension-7 load: the spectral
    # factor and foster_data(Z) each find one root set, is_inner(K)
    # proves K's poles stable by Routh's test and finds none, and the
    # inversion runs no lossless test of its own
    spec = FosterSpec(k0=0.8, tanks=((0.5, 0.9), (1.1, 1.7), (0.7, 2.6)))
    Phi = constant_numerator_spectrum(spec, gain=1.5)
    calls = []
    roots = Polynomial.roots
    monkeypatch.setattr(Polynomial, "roots",
                        lambda self: calls.append(self.degree) or roots(self))
    chain = run_synthesis(Phi)
    assert chain.load.dim == 7
    assert len(calls) == 2
    calls.clear()
    back = scattering_K(invert_K_to_Z(chain.K))
    assert back.close_to(chain.K, tol=1e-8)
    assert len(calls) == 1

    def refuse(self):
        raise AssertionError("the lossless test computed a zero")

    monkeypatch.setattr(RationalFunction, "zeros", refuse)
    assert is_lossless_pr(chain.impedance)
    assert foster_from_rational(chain.impedance) == chain.foster


class TestSynthesis:
    def test_capacitor_chain_by_hand(self):
        Phi = RationalFunction([1.0], [1.0, 0.0, -1.0])
        chain = run_synthesis(Phi)
        load, pair = chain.load, chain.pair
        assert load.dim == 1
        assert transfer_function(load.ss).close_to(
            RationalFunction([1.0], [0.0, 1.0]), tol=1e-9
        )
        assert pair.K.close_to(K_CAP, tol=1e-9)

    def test_flat_spectrum_fails_at_inversion(self):
        with pytest.raises(SynthesisStageError) as err:
            run_synthesis(RationalFunction([1.0], [1.0]))
        assert err.value.stage == "invert"

    def test_odd_spectrum_fails_at_factor(self):
        with pytest.raises(SynthesisStageError) as err:
            run_synthesis(RationalFunction([0.0, 1.0], [1.0, 0.0, -1.0]))
        assert err.value.stage == "factor"

    def test_cap_tank_spectrum_recovers_load(self):
        spec = FosterSpec(k0=1.0, tanks=((0.5, 1.0),))
        Phi = constant_numerator_spectrum(spec)
        chain = run_synthesis(Phi)
        want = foster_to_rational(spec)
        assert chain.impedance.close_to(want, tol=1e-7)
        assert chain.foster.k0 == pytest.approx(1.0, abs=1e-7)
        assert chain.foster.tanks[0][1] == pytest.approx(1.0, abs=1e-7)

    def test_random_family_round_trip(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            spec = random_foster(rng, max_tanks=3, require_k0=True)
            Phi = constant_numerator_spectrum(spec, gain=rng.uniform(0.5, 3.0))
            chain = run_synthesis(Phi)
            assert chain.impedance.close_to(foster_to_rational(spec), tol=1e-7)

    def test_even_degree_spectrum_not_recoverable(self):
        # pure tank loads close the loop with K(inf) = +1 after
        # factorization, which no proper load can produce
        spec = FosterSpec(tanks=((0.5, 1.0),))
        Phi = constant_numerator_spectrum(spec)
        with pytest.raises(SynthesisStageError) as err:
            run_synthesis(Phi)
        assert err.value.stage == "invert"

    def test_matched_observable_reproduces_spectrum(self):
        spec = FosterSpec(k0=1.0, tanks=((0.5, 1.0),))
        Phi = constant_numerator_spectrum(spec)
        chain = run_synthesis(Phi)
        obs = match_observable_to_factor(chain.load, chain.pair, chain.W)
        W, _ = observable_transfers(chain.pair, obs)
        for w in np.logspace(-2, 2, 50):
            got = abs(W.evaluate(1j * w)) ** 2
            want = Phi.evaluate(1j * w).real
            assert got == pytest.approx(want, rel=1e-6)


    @pytest.mark.parametrize("n_tanks", [5, 6], ids=["dim11", "dim13"])
    def test_ceiling_family_round_trip(self, n_tanks):
        # the spectra have degree 22 and 26: a pole guard scaled by
        # (1 + |s|)^deg refused spectral_factor's axis probes here
        for spec in ceiling_specs(7, n_tanks):
            chain = run_synthesis(constant_numerator_spectrum(spec))
            assert chain.impedance.close_to(foster_to_rational(spec),
                                            tol=1e-7)

    def test_matched_observable_at_dimension_nine(self):
        spec = ceiling_specs(7, 4, count=1)[0]
        Phi = constant_numerator_spectrum(spec)
        chain = run_synthesis(Phi)
        assert chain.load.dim == 9
        obs = match_observable_to_factor(chain.load, chain.pair, chain.W)
        W, _ = observable_transfers(chain.pair, obs)
        for w in np.logspace(-2, 2, 50):
            got = abs(W.evaluate(1j * w)) ** 2
            want = Phi.evaluate(1j * w).real
            assert got == pytest.approx(want, rel=1e-6)


class TestReport:
    def test_fields_and_sanity(self):
        pair = close_loops(CAP_TANK)
        rep = coupling_report(pair)
        assert set(rep) == {
            "gamma_eigs", "gamma_bar_eigs", "K_num", "K_den",
            "allpass_residual", "mirror_residual",
        }
        assert rep["allpass_residual"] < 1e-8
        assert rep["mirror_residual"] < 1e-8
        assert len(rep["gamma_eigs"]) == 3
