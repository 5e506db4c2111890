"""Foster forms and their skew-symmetric realizations.

The small expansions used as oracles ((2s^2+1)/(s^3+s) etc.) were done
by hand over the common denominator before the code existed.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leverrier import transfer_function
from wavebath.ratfun import RationalFunction, is_lossless_pr
from wavebath.realization import (
    CertificateReport,
    DegenerateLoadError,
    FosterExtractionError,
    FosterParseError,
    FosterSpec,
    ImproperImpedanceError,
    LosslessRealization,
    StateSpace,
    foster_from_rational,
    foster_from_realization,
    foster_realize,
    foster_to_rational,
    random_foster,
    verify_lossless_certificate,
)

CAP = FosterSpec(k0=1.0)
TANK = FosterSpec(k0=0.0, tanks=((0.5, 1.0),))
CAP_TANK = FosterSpec(k0=1.0, tanks=((0.5, 1.0),))


class TestFosterSpec:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLoadError):
            FosterSpec(0.0, ())

    def test_frequencies_must_increase(self):
        with pytest.raises(ValueError):
            FosterSpec(0.0, ((1.0, 2.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            FosterSpec(0.0, ((1.0, 1.0), (1.0, 1.0)))

    def test_positivity(self):
        with pytest.raises(ValueError):
            FosterSpec(-1.0, ())
        with pytest.raises(ValueError):
            FosterSpec(0.0, ((-0.5, 1.0),))
        with pytest.raises(ValueError):
            FosterSpec(0.0, ((0.5, -1.0),))

    def test_state_dim(self):
        assert CAP.state_dim == 1
        assert TANK.state_dim == 2
        assert CAP_TANK.state_dim == 3

    def test_text_round_trip(self):
        for spec in (CAP, TANK, CAP_TANK):
            assert FosterSpec.from_text(spec.to_text()) == spec

    def test_parse_sorts_tanks(self):
        spec = FosterSpec.from_text("tank = 1,3; k0 = 2; tank = 0.5,1")
        assert spec.k0 == 2.0
        assert spec.tanks == ((0.5, 1.0), (1.0, 3.0))

    @pytest.mark.parametrize(
        "bad",
        [
            "k0",  # no '='
            "k0 = x",
            "tank = 1",  # missing frequency
            "tank = 1,2,3",
            "inductor = 1",  # unknown key
            "k0 = 1; k0 = 2",  # duplicate
            "tank = 1,1; tank = 2,1",  # duplicate frequency
            "",  # nothing at all
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises((FosterParseError, DegenerateLoadError)):
            FosterSpec.from_text(bad)


class TestFosterToRational:
    def test_capacitor(self):
        assert foster_to_rational(CAP).close_to(
            RationalFunction([1.0], [0.0, 1.0]), tol=1e-14
        )

    def test_tank(self):
        assert foster_to_rational(TANK).close_to(
            RationalFunction([0.0, 1.0], [1.0, 0.0, 1.0]), tol=1e-14
        )

    def test_capacitor_plus_tank(self):
        # 1/s + s/(s^2+1) = (2s^2+1)/(s^3+s)
        assert foster_to_rational(CAP_TANK).close_to(
            RationalFunction([1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 1.0]), tol=1e-14
        )

    def test_always_lossless_and_proper(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = random_foster(rng)
            Z = foster_to_rational(spec)
            assert is_lossless_pr(Z)
            assert Z.num.degree < Z.den.degree


class TestFosterRealize:
    def test_capacitor_block(self):
        r = foster_realize(CAP)
        assert r.ss.A.tolist() == [[0.0]]
        assert r.ss.b.tolist() == [1.0]
        assert r.ss.c.tolist() == [1.0]
        assert r.ss.d == 0.0
        assert [f.name for f in dataclasses.fields(r)] == ["ss"]

    def test_tank_block(self):
        r = foster_realize(TANK)
        assert r.ss.A.tolist() == [[0.0, 1.0], [-1.0, 0.0]]
        assert r.ss.b.tolist() == [0.0, 1.0]
        assert r.ss.c.tolist() == [0.0, 1.0]

    def test_state_dimension(self):
        assert foster_realize(CAP_TANK).dim == 3

    def test_eigenvalues_are_branch_frequencies(self):
        spec = FosterSpec(1.0, ((0.5, 1.0), (0.25, 2.5)))
        eigs = np.linalg.eigvals(foster_realize(spec).ss.A)
        want = sorted([0.0, 1.0, -1.0, 2.5, -2.5])
        got = sorted(eigs.imag)
        np.testing.assert_allclose(got, want, atol=1e-9)
        np.testing.assert_allclose(eigs.real, 0.0, atol=1e-9)


class TestCertificate:
    def test_exact_for_constructed_blocks(self):
        for spec in (CAP, TANK, CAP_TANK):
            rep = verify_lossless_certificate(foster_realize(spec))
            assert rep.lyapunov_residual == 0.0
            assert rep.gain_residual == 0.0

    def test_perturbation_is_reported(self):
        r = foster_realize(TANK)
        A = r.ss.A.copy()
        A[0, 0] += 1e-3
        with pytest.raises(ValueError, match="lyapunov") as err:
            LosslessRealization(StateSpace(A, r.ss.b, r.ss.c))
        lyap = float(re.search(r"lyapunov (\S+),", str(err.value))[1])
        assert lyap == pytest.approx(2e-3, rel=0.5)
        assert "gain 0.000e+00, feedthrough 0.000e+00" in str(err.value)

    def test_constructor_rejects_bad_certificate(self):
        with pytest.raises(ValueError):
            LosslessRealization(StateSpace([[1.0]], [1.0], [1.0]))

    def test_minimality_margins_positive(self):
        rep = verify_lossless_certificate(foster_realize(CAP_TANK))
        assert rep.controllability_margin > 1e-3
        assert rep.observability_margin > 1e-3

    @pytest.mark.parametrize("n_tanks", [12, 40], ids=["dim25", "dim81"])
    def test_margins_match_both_pbh_loops(self, n_tanks):
        # oracle: the controllability and observability PBH tests as two
        # dense SVD loops; the report runs one and reads the other off
        # the certificate (b = c^T, A = -A^T)
        rng = np.random.default_rng(n_tanks)
        for _ in range(3):
            freqs = 0.6 + np.cumsum(rng.uniform(0.3, 0.7, n_tanks))
            spec = FosterSpec(rng.uniform(0.2, 2.0), tuple(
                zip(rng.uniform(0.2, 2.0, n_tanks).tolist(), freqs.tolist())))
            load = foster_realize(spec)
            ss = load.ss
            eigs = np.linalg.eigvals(ss.A)
            n = ss.dim
            ctrb, obsv = (min(np.linalg.svd(
                np.hstack([lam * np.eye(n) - A, v.reshape(-1, 1)]),
                compute_uv=False)[-1] for lam in eigs)
                for A, v in ((ss.A, ss.b), (ss.A.T, ss.c)))
            rep = verify_lossless_certificate(load)
            # SVD's backward error is of order n eps |M|, M = [lam I - A | b]:
            # below 1e-12 of these margins, which are about 0.1
            assert rep.controllability_margin == pytest.approx(ctrb, rel=1e-12)
            assert rep.observability_margin == pytest.approx(obsv, rel=1e-12)


class TestTransferFunction:
    def test_integrator(self):
        tf = transfer_function(StateSpace([[0.0]], [1.0], [1.0]))
        assert tf.close_to(RationalFunction([1.0], [0.0, 1.0]), tol=1e-14)

    def test_tank(self):
        tf = transfer_function(foster_realize(TANK).ss)
        assert tf.close_to(
            RationalFunction([0.0, 1.0], [1.0, 0.0, 1.0]), tol=1e-12
        )

    def test_feedthrough(self):
        # 1 + 1/(s+1) = (s+2)/(s+1)
        tf = transfer_function(StateSpace([[-1.0]], [1.0], [1.0], d=1.0))
        assert tf.close_to(RationalFunction([2.0, 1.0], [1.0, 1.0]), tol=1e-14)

    def test_round_trip_random_specs(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            spec = random_foster(rng, max_tanks=3)
            want = foster_to_rational(spec)
            got = transfer_function(foster_realize(spec).ss)
            assert got.close_to(want, tol=1e-9), spec


class TestFosterFromRational:
    def test_capacitor_tank_round_trip(self):
        Z = RationalFunction([1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 1.0])
        spec = foster_from_rational(Z)
        assert spec.k0 == pytest.approx(1.0, abs=1e-12)
        assert len(spec.tanks) == 1
        k, w = spec.tanks[0]
        assert k == pytest.approx(0.5, abs=1e-12)
        assert w == pytest.approx(1.0, abs=1e-12)

    def test_improper_rejected(self):
        with pytest.raises(ImproperImpedanceError):
            foster_from_rational(RationalFunction([0.0, 1.0], [1.0]))

    def test_lossy_rejected(self):
        with pytest.raises(FosterExtractionError):
            foster_from_rational(RationalFunction([1.0], [1.0, 1.0]))

    def test_random_round_trip(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            spec = random_foster(rng)
            back = foster_from_rational(foster_to_rational(spec))
            assert back.k0 == pytest.approx(spec.k0, abs=1e-8)
            assert len(back.tanks) == len(spec.tanks)
            for (k1, w1), (k2, w2) in zip(back.tanks, spec.tanks):
                assert k1 == pytest.approx(k2, rel=1e-8)
                assert w1 == pytest.approx(w2, rel=1e-8)


def ladder(dim):
    """k0 = 1 (odd dim) and unit tanks at 1, 1.5, 2, ..."""
    return FosterSpec(float(dim % 2),
                      tuple((1.0, 1.0 + 0.5 * i) for i in range(dim // 2)))


def rotated(r, seed):
    """(Q A Q^T, Q b, c Q^T) for a random orthogonal Q: same impedance,
    but A is no longer block diagonal."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(r.dim, r.dim)))[0]
    ss = StateSpace(Q @ r.ss.A @ Q.T, Q @ r.ss.b, r.ss.c @ Q.T)
    return LosslessRealization(ss)


class TestFosterFromRealization:
    @pytest.mark.parametrize("dim", [25, 30, 31, 81])
    def test_rotated_realization_within_backward_error(self, dim):
        # Forming Q A Q^T (two products) and eigh are each backward
        # stable with backward error at most n eps |A|_2 (Higham, ch. 3;
        # LAPACK Users' Guide 4.7, taking its p(n) as n), so the
        # computed pairs are exact for a Hermitian 1j A + E with
        # |E|_2 <= eta = 3 n eps |A|_2. Weyl: each frequency moves by at
        # most eta. Davis-Kahan: each eigenvector turns by
        # sin(theta) <= eta / gap, so the residue |v^H b|^2 moves by at
        # most |b|^2 (2 sin(theta) + sin(theta)^2) <= 3 |b|^2 eta / gap,
        # plus 2 n eps |b|^2 from rotating b.
        spec = ladder(dim)
        r = foster_realize(spec)
        back = foster_from_realization(rotated(r, dim))
        eps = np.finfo(float).eps
        eta = 3 * dim * eps * np.linalg.norm(r.ss.A, 2)
        spectrum = np.sort(np.linalg.eigvalsh(1j * r.ss.A))
        gap = np.min(np.diff(spectrum))
        bb = float(r.ss.b @ r.ss.b)
        res_tol = bb * (3 * eta / gap + 2 * dim * eps)
        assert back.state_dim == spec.state_dim
        assert (back.k0 > 0) == (spec.k0 > 0)
        assert abs(back.k0 - spec.k0) <= res_tol
        for (k1, w1), (k2, w2) in zip(back.tanks, spec.tanks):
            assert abs(w1 - w2) <= eta
            assert abs(k1 - k2) <= res_tol

    def test_block_realization_round_trips(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            spec = random_foster(rng)
            back = foster_from_realization(foster_realize(spec))
            assert back.k0 == pytest.approx(spec.k0, rel=1e-14)
            assert len(back.tanks) == len(spec.tanks)
            for (k1, w1), (k2, w2) in zip(back.tanks, spec.tanks):
                assert k1 == pytest.approx(k2, rel=1e-14)
                assert w1 == pytest.approx(w2, rel=1e-14)

    def test_other_metric_or_feedthrough_refused(self):
        # certified only in Omega = 2 coordinates (A = 0, Omega b = c),
        # or with a feedthrough: neither is a LosslessRealization, so no
        # consumer sees one. The coupled pair has no place for d, and
        # close_loops would return the poles of the d = 0 load
        # (-1.755, -0.123 +- 0.745j) for the second.
        ss = foster_realize(FosterSpec.from_text("k0=1; tank=0.5,1")).ss
        for bad, residual in ((StateSpace([[0.0]], [1.0], [2.0]),
                               "gain 5.000e-01"),
                              (StateSpace(ss.A, ss.b, ss.c, d=1.0),
                               "feedthrough 1.000e+00")):
            with pytest.raises(ValueError, match=re.escape(residual)):
                LosslessRealization(bad)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_property_realizations_always_certify(seed):
    spec = random_foster(np.random.default_rng(seed))
    rep = verify_lossless_certificate(foster_realize(spec))
    assert rep.lyapunov_residual < 1e-8 and rep.gain_residual < 1e-8
    assert rep.controllability_margin > 1e-6
    assert rep.observability_margin > 1e-6


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 3)), [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), [1.0], [1.0, 0.0])
