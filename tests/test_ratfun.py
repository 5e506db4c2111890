"""Polynomial / rational-function layer: frozen oracles + properties.

Expected values here were computed by hand (quadratic formula, direct
expansion) before the implementation existed, so they act as
independent oracles rather than regression snapshots.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavebath import ratfun
from wavebath.ratfun import (
    DEGREE_CAP,
    DegreeCapError,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    SpectralFactorError,
    is_inner,
    is_lossless_pr,
    _hurwitz_beyond,
    _split_conjugate,
    spectral_factor,
)
from wavebath.realization import FosterSpec, foster_to_rational


def rat(num, den):
    return RationalFunction(num, den)


def rat_sum(parts):
    """The reduced sum of the fractions num / den, given as polynomial
    (num, den) pairs, over their common denominator."""
    num, den = Polynomial.zero(), Polynomial.one()
    for n, d in parts:
        num, den = num * d + n * den, den * d
    return RationalFunction(num, den)


# -- loop references for the vectorized root kernels ----------------------


def split_conjugate_loop(roots, tol=1e-6):
    """Reference: the greedy conjugate matcher, one root at a time."""
    roots = np.asarray(roots, dtype=complex)
    reals = []
    complexes = []
    for r in roots:
        if abs(r.imag) <= tol * (1.0 + abs(r)):
            reals.append(r.real)
        else:
            complexes.append(r)
    upper = sorted(
        [z for z in complexes if z.imag > 0], key=lambda w: (w.real, w.imag)
    )
    lower = [z for z in complexes if z.imag < 0]
    pairs = []
    for z in upper:
        if not lower:
            reals.append(z.real)
            continue
        j = int(np.argmin([abs(z - w.conjugate()) for w in lower]))
        w = lower.pop(j)
        pairs.append(complex((z.real + w.real) / 2, (z.imag - w.imag) / 2))
    for w in lower:
        reals.append(w.real)
    return np.array(reals, dtype=float), pairs


def from_roots_loop(roots, leading=1.0):
    """Reference: one Polynomial product per real factor or pair."""
    reals, pairs = split_conjugate_loop(np.asarray(roots, dtype=complex))
    p = Polynomial([float(leading)])
    for r in reals:
        p = p * Polynomial([-r, 1.0])
    for z in pairs:
        p = p * Polynomial([abs(z) ** 2, -2.0 * z.real, 1.0])
    return p


def roots_loop(p):
    """Reference: np.roots, the loop matcher and a sorted list."""
    if p.degree == 0:
        return np.array([], dtype=complex)
    reals, pairs = split_conjugate_loop(np.roots(p.coeffs[::-1]))
    out = list(map(complex, reals))
    for z in pairs:
        out.extend([z, z.conjugate()])
    return np.array(sorted(out, key=lambda w: (w.real, w.imag)))


def root_sets():
    """Named root sets: real, exact pairs, duplicates, empty, inexact."""
    rng = np.random.default_rng(2025)
    sets = {"empty": np.array([], dtype=complex)}
    for k in range(5):
        sets[f"real{k}"] = rng.normal(size=k + 1) * 3.0
        ev = np.linalg.eigvals(rng.normal(size=(9 + k, 9 + k)))
        sets[f"eig{k}"] = ev  # LAPACK's exact conjugate pairs
        z = rng.normal(size=k + 1) + 1j * rng.uniform(0.1, 2.0, size=k + 1)
        sets[f"pairs{k}"] = rng.permutation(np.concatenate([z, z.conj()]))
        sets[f"dup{k}"] = np.concatenate([ev, ev[: k + 2], [1.5, 1.5]])
        inexact = np.concatenate([z, z.conj() * (1.0 + 1e-12 * (k + 1))])
        sets[f"inexact{k}"] = rng.permutation(inexact)
        sets[f"unmatched{k}"] = np.concatenate([z, z[:k].conj(), [-0.5]])
    return sets


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestPolynomial:
    def test_zero_degree_sentinel(self):
        assert Polynomial.zero().degree is None
        assert Polynomial([0.0, 0.0, 0.0]).degree is None

    def test_trailing_zeros_stripped(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p.coeffs.tolist() == [1.0, 2.0]

    def test_degree_cap(self):
        Polynomial(np.ones(DEGREE_CAP + 1))  # exactly at cap: fine
        with pytest.raises(DegreeCapError):
            Polynomial(np.ones(DEGREE_CAP + 2))

    def test_eval_horner(self):
        p = Polynomial([1.0, 0.0, 2.0])  # 1 + 2 s^2
        assert p(3.0) == 19.0
        assert p(1j) == pytest.approx(-1.0)

    def test_arithmetic(self):
        p = Polynomial([1.0, 1.0])
        q = Polynomial([-1.0, 1.0])
        assert (p * q).coeffs.tolist() == [-1.0, 0.0, 1.0]
        assert (p + q).coeffs.tolist() == [0.0, 2.0]
        assert (p - p).degree is None

    def test_reflection_flips_odd_coeffs(self):
        p = Polynomial([1.0, 2.0, 3.0, 4.0])
        assert p.reflected().coeffs.tolist() == [1.0, -2.0, 3.0, -4.0]
        assert p.reflected().reflected().coeffs.tolist() == p.coeffs.tolist()

    def test_derivative(self):
        p = Polynomial([5.0, 3.0, 0.0, 2.0])  # 5 + 3s + 2s^3
        assert p.derivative().coeffs.tolist() == [3.0, 0.0, 6.0]

    def test_roots_pure_imaginary_pair(self):
        # s^2 + 1 -> {+j, -j}, exactly conjugate
        r = Polynomial([1.0, 0.0, 1.0]).roots()
        assert sorted(z.imag for z in r) == pytest.approx([-1.0, 1.0])
        assert r[0] == r[1].conjugate()

    def test_roots_quadratic_formula(self):
        # s^2 + s + 1 -> -1/2 +- j sqrt(3)/2 (hand oracle)
        r = Polynomial([1.0, 1.0, 1.0]).roots()
        expect = sorted([(-0.5, -np.sqrt(3) / 2), (-0.5, np.sqrt(3) / 2)])
        got = sorted([(z.real, z.imag) for z in r])
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_roots_with_multiplicity(self):
        r = Polynomial([0.0, 0.0, 0.0, 1.0]).roots()  # s^3
        assert len(r) == 3
        np.testing.assert_allclose(np.abs(r), 0.0, atol=1e-8)

    def test_roots_of_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.zero().roots()

    def test_from_roots_round_trip(self):
        roots = [-1.0, -2.0, complex(-0.5, 1.5), complex(-0.5, -1.5)]
        p = Polynomial.from_roots(roots, leading=3.0)
        assert p.leading == pytest.approx(3.0)
        got = sorted(p.roots(), key=lambda z: (z.real, z.imag))
        want = sorted(map(complex, roots), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestRootKernelsBitwise:
    @pytest.mark.parametrize("name", sorted(root_sets()))
    def test_split_conjugate(self, name):
        roots = root_sets()[name]
        reals, pairs = _split_conjugate(roots)
        want_reals, want_pairs = split_conjugate_loop(roots)
        assert same_bits(reals, want_reals)
        assert all(type(z) is complex for z in pairs)
        assert same_bits(np.array(pairs, dtype=complex),
                         np.array(want_pairs, dtype=complex))

    @pytest.mark.parametrize("name", sorted(root_sets()))
    def test_from_roots(self, name):
        roots = root_sets()[name]
        for leading in (1.0, -2.5):
            got = Polynomial.from_roots(roots, leading=leading)
            want = from_roots_loop(roots, leading)
            assert same_bits(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("name", sorted(root_sets()))
    def test_roots(self, name):
        p = from_roots_loop(root_sets()[name], leading=1.5)
        assert same_bits(p.roots(), roots_loop(p))
        q = Polynomial(np.random.default_rng(len(name)).normal(size=8))
        assert same_bits(q.roots(), roots_loop(q))


class TestRationalFunction:
    def test_reduction_cancels_common_factor(self):
        # (s+1)(s+2) / (s+1)(s+3) -> (s+2)/(s+3)
        R = rat([2.0, 3.0, 1.0], [3.0, 4.0, 1.0])
        assert R.num.degree == 1
        assert R.den.degree == 1
        assert R.evaluate(1.0) == pytest.approx(3.0 / 4.0)

    def test_monic_denominator(self):
        R = rat([2.0], [4.0, 2.0])
        assert R.den.leading == pytest.approx(1.0)
        assert R.evaluate(0.0) == pytest.approx(0.5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rat([1.0], [0.0])

    def test_evaluate_direct_substitution(self):
        R = rat([0.0, 1.0], [1.0, 0.0, 1.0])  # s/(s^2+1)
        assert R.evaluate(2.0) == pytest.approx(2.0 / 5.0)

    def test_evaluate_all_pass_modulus(self):
        R = rat([1.0, -1.0], [1.0, 1.0])  # (1-s)/(1+s)
        assert abs(R.evaluate(1j)) == pytest.approx(1.0)

    def test_evaluate_at_pole_raises(self):
        R = rat([1.0], [0.0, 1.0])  # 1/s
        with pytest.raises(PoleEvaluationError):
            R.evaluate(0.0)

    def test_evaluate_exactly_at_a_root_raises(self):
        roots = [1.0, 2.0, 3.0, -4.0, 5.0]  # integer Horner: den(r) == 0
        R = RationalFunction(Polynomial.one(), Polynomial.from_roots(roots))
        for r in roots:
            with pytest.raises(PoleEvaluationError):
                R.evaluate(r)

    def test_evaluate_near_axis_poles_at_high_degree(self):
        # eleven pole pairs 0.025 off the axis; s = 2.83j is 0.03 from
        # the nearest one, which a guard growing as (1 + |s|)^22 refused
        poles = [complex(-0.025, 0.5 * k) for k in range(1, 12)]
        poles += [p.conjugate() for p in poles]
        R = RationalFunction(Polynomial.one(), Polynomial.from_roots(poles),
                             reduce=False)
        s = 2.83j
        want = 1.0 / np.prod([s - p for p in poles])
        assert R.evaluate(s) == pytest.approx(want, rel=1e-10)

    def test_reflected(self):
        R = rat([1.0, -1.0], [1.0, 1.0])
        assert R.reflected().close_to(rat([1.0, 1.0], [1.0, -1.0]))

    def test_at_infinity(self):
        assert rat([1.0], [0.0, 1.0]).at_infinity() == 0.0
        assert rat([2.0, 6.0], [1.0, 3.0]).at_infinity() == pytest.approx(2.0)
        assert rat([0.0, 1.0], [1.0]).at_infinity() is None

    def test_reduced_matches_unreduced_at_random_points(self):
        rng = np.random.default_rng(7)
        num = Polynomial([1.0, 2.0, 1.0])
        den = Polynomial([2.0, 1.0, 0.0, 1.0])
        common = Polynomial([0.5, 1.5, 1.0])
        R = RationalFunction(num * common, den * common)
        for _ in range(100):
            s = complex(rng.normal(), rng.normal())
            direct = (num * common)(s) / (den * common)(s)
            assert R.evaluate(s) == pytest.approx(direct, rel=1e-10)

    def test_proportional_numerators_divide_exactly(self):
        # (p/d1) / (k p/d2) = d2/(k d1) without any root matching
        p = Polynomial([1.0, 2.0, 3.0])
        a = RationalFunction(p, [1.0, 1.0])
        b = RationalFunction(p.scaled(-2.0), [2.0, 1.0])
        q = a / b
        assert q.close_to(rat([-1.0, -0.5], [1.0, 1.0]), tol=1e-15)

    def test_nearly_proportional_numerators_cancel(self):
        p = Polynomial([1.0, 2.0, 3.0])
        wiggle = Polynomial([1.0 + 3e-11, 2.0 - 4e-11, 3.0])
        a = RationalFunction(p, [1.0, 1.0], reduce=False)
        b = RationalFunction(wiggle, [3.0, 1.0], reduce=False)
        q = a / b
        assert q.close_to(rat([3.0, 1.0], [1.0, 1.0]), tol=1e-9)


class TestDeflation:
    @pytest.mark.parametrize("degree", [12, 22])
    @pytest.mark.parametrize("z", [complex(-0.05, 6.0), complex(-0.3, 0.2),
                                   -6.0, -0.2])
    def test_recovers_the_cofactor(self, degree, z):
        # run from the top coefficient, dividing out the pair at modulus
        # 6 loses 1e-11 of the scale at degree 12 and 5e-9 at degree 22
        rest = stable_poles(degree, np.random.default_rng(6))
        roots = [z, z.conjugate()] if isinstance(z, complex) else [z]
        q = Polynomial.from_roots(rest)
        p = Polynomial.from_roots(rest + roots)
        got, _ = ratfun._deflate_both(p, p, np.array(roots))
        assert got.degree == q.degree
        assert np.max(np.abs(got.coeffs - q.coeffs)) <= (
            1e-14 * q.max_abs_coeff())


class TestSerialization:
    def test_text_form(self):
        R = rat([1.0, 0.0, 2.0], [0.0, 1.0])
        text = R.to_text()
        assert ";" in text
        back = RationalFunction.from_text(text)
        assert back.close_to(R, tol=0.0)

    def test_parse_example(self):
        R = RationalFunction.from_text("0 1 ; 1 0 1")
        assert R.evaluate(2.0) == pytest.approx(2.0 / 5.0)

    @pytest.mark.parametrize("bad", ["1 2", "1 ; 2 ; 3", "a ; 1", " ; 1", "1 ; "])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            RationalFunction.from_text(bad)

    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-3, max_value=1e6),
                st.floats(min_value=-1e6, max_value=-1e-3),
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda c: any(x != 0 for x in c))
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, coeffs):
        R = RationalFunction(Polynomial(coeffs), Polynomial([1.0, 1.0, 3.0]),
                             reduce=False)
        back = RationalFunction.from_text(R.to_text())
        assert np.array_equal(back.num.coeffs, R.num.coeffs)
        assert np.array_equal(back.den.coeffs, R.den.coeffs)


class TestLosslessPredicate:
    def test_tank_impedance_is_lossless(self):
        assert is_lossless_pr(rat([0.0, 1.0], [1.0, 0.0, 1.0]))

    def test_damped_pole_is_not(self):
        assert not is_lossless_pr(rat([1.0], [1.0, 1.0]))

    def test_interlaced_two_pole_example(self):
        # (s^2+1)/(s(s^2+4)): poles {0, +-2j}, zeros {+-j} interlace
        assert is_lossless_pr(rat([1.0, 0.0, 1.0], [0.0, 4.0, 0.0, 1.0]))

    def test_non_interlaced_rejected(self):
        # (s^2+1)(s^2+1.21)/(s(s^2+4)(s^2+4.41)) puts two zeros between
        # adjacent poles -> alternation fails even though Z stays odd
        num = Polynomial([1.0, 0.0, 1.0]) * Polynomial([1.21, 0.0, 1.0])
        den = (
            Polynomial([0.0, 1.0])
            * Polynomial([4.0, 0.0, 1.0])
            * Polynomial([4.41, 0.0, 1.0])
        )
        assert not is_lossless_pr(RationalFunction(num, den))

    def test_negative_residue_rejected(self):
        # -1/s is odd with axis pole but the residue is negative
        assert not is_lossless_pr(rat([-1.0], [0.0, 1.0]))

    def test_double_pole_rejected(self):
        assert not is_lossless_pr(rat([0.0, 1.0], [1.0, 0.0, 2.0, 0.0, 1.0]))

    def test_zero_function_rejected(self):
        assert not is_lossless_pr(rat([0.0], [1.0]))

    def test_pure_imaginary_on_axis(self):
        # 1/s + s/(s^2+1) + s/(s^2+4) over the common denominator;
        # every lossless Z is purely imaginary along s = j omega
        Z = rat([4.0, 0.0, 10.0, 0.0, 3.0], [0.0, 4.0, 0.0, 5.0, 0.0, 1.0])
        assert is_lossless_pr(Z)
        for w in np.linspace(0.11, 7.9, 40):
            v = Z.evaluate(1j * w)
            assert abs(v.real) <= 1e-9 * max(1.0, abs(v))

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_lossless_iff_generating_data_are(self, seed, nudge):
        # the oracle is the data R is summed from: tanks, a pole at the
        # origin and one at infinity, some of them, each with a residue
        # of random sign, and, when nudge is set, one finite pole moved
        # off the axis
        rng = np.random.default_rng(seed)
        sign = lambda: float(rng.choice([-1.0, 1.0]))
        freqs = 0.3 + np.cumsum(rng.uniform(0.3, 1.0, rng.integers(0, 4)))
        terms = [(sign() * rng.uniform(0.2, 2.0), w) for w in freqs]
        if not terms or rng.integers(0, 2):
            terms.append((sign() * rng.uniform(0.2, 2.0), 0.0))
        shift = np.zeros(len(terms))
        if nudge:
            i = rng.integers(len(terms))
            shift[i] = (sign() * 10.0 ** rng.uniform(-6, -2)
                        * (1.0 + terms[i][1]))
        parts = []
        for (k, w), sigma in zip(terms, shift):
            s = Polynomial([sigma, 1.0])  # s + sigma: the pole moves by -sigma
            if w == 0.0:
                parts.append((Polynomial([k]), s))
            else:
                parts.append((s.scaled(2.0 * k), s * s + Polynomial([w * w])))
        k_inf = 0.0
        if rng.integers(0, 2):
            k_inf = sign() * rng.uniform(0.2, 2.0)
            parts.append((Polynomial([0.0, k_inf]), Polynomial.one()))
        R = rat_sum(parts)
        lossless = k_inf >= 0 and all(k > 0 for k, _ in terms) and not nudge
        assert is_lossless_pr(R) is lossless, (terms, shift, k_inf, R)


class TestInnerPredicate:
    def test_first_order_all_pass(self):
        assert is_inner(rat([1.0, -1.0], [1.0, 1.0]))

    def test_constant_one(self):
        assert is_inner(rat([1.0], [1.0]))

    def test_constant_minus_one(self):
        assert is_inner(rat([-1.0], [1.0]))

    def test_low_pass_is_not_inner(self):
        assert not is_inner(rat([1.0], [1.0, 1.0]))

    def test_unstable_all_pass_is_not_inner(self):
        # (1+s)/(1-s) has modulus one but a right-half-plane pole
        assert not is_inner(rat([1.0, 1.0], [1.0, -1.0]))

    def test_second_order_all_pass(self):
        K = rat([1.0, -1.0, 1.0], [1.0, 1.0, 1.0])
        assert is_inner(K)
        for w in np.logspace(-2, 2, 25):
            assert abs(K.evaluate(1j * w)) == pytest.approx(1.0, abs=1e-12)

    def test_stability_proved_without_roots(self, monkeypatch):
        rng = np.random.default_rng(21)
        Ks = [inner_with_poles(stable_poles(degree, rng))
              for degree in range(1, 14)]

        def refuse(self):
            raise AssertionError("is_inner found a root set")

        monkeypatch.setattr(Polynomial, "roots", refuse)
        assert all(is_inner(K) for K in Ks)

    @pytest.mark.parametrize("margin, inner", [(0.5, False), (2.0, True)])
    def test_poles_near_the_axis_found_and_checked(self, monkeypatch,
                                                   margin, inner):
        # a pair at Re p = -margin SNAP_TOL (1 + |p|): too close to the
        # axis for Routh's test to prove, so the poles are found and the
        # pole margin alone decides
        w = 2.0
        p = complex(-margin * ratfun.SNAP_TOL * (1.0 + w), w)
        K = inner_with_poles([p, p.conjugate(), -1.0])
        calls = []
        roots = Polynomial.roots
        monkeypatch.setattr(Polynomial, "roots",
                            lambda self: calls.append(1) or roots(self))
        assert is_inner(K) is inner
        assert calls == [1]


class TestSpectralFactor:
    def test_single_pole_spectrum(self):
        # Phi = 1/(1-s^2): hand oracle W = 1/(1+s)
        W, Wbar = spectral_factor(rat([1.0], [1.0, 0.0, -1.0]))
        assert W.close_to(rat([1.0], [1.0, 1.0]), tol=1e-10)
        assert Wbar.close_to(rat([1.0], [1.0, -1.0]), tol=1e-10)

    def test_constant_spectrum(self):
        W, Wbar = spectral_factor(rat([1.0], [1.0]))
        assert W.close_to(rat([1.0], [1.0]), tol=1e-12)
        assert Wbar.close_to(rat([1.0], [1.0]), tol=1e-12)

    def test_pole_zero_spectrum(self):
        # Phi = (1-s^2)/(4-s^2): hand oracle W = (1+s)/(2+s)
        W, _ = spectral_factor(rat([1.0, 0.0, -1.0], [4.0, 0.0, -1.0]))
        assert W.close_to(rat([1.0, 1.0], [2.0, 1.0]), tol=1e-10)

    def test_factor_reproduces_spectrum_on_axis(self):
        Phi = rat([4.0, 0.0, -3.0], [36.0, 0.0, -13.0, 0.0, 1.0])
        W, Wbar = spectral_factor(Phi)
        for w in np.logspace(-2, 2, 40):
            lhs = abs(W.evaluate(1j * w)) ** 2
            rhs = Phi.evaluate(1j * w).real
            assert lhs == pytest.approx(rhs, rel=1e-8)
        # coprime: W and Wbar share no root
        product = RationalFunction(W.num * Wbar.num, W.den * Wbar.den,
                                   reduce=False)
        assert product.close_to(Phi, tol=1e-9)

    def test_lhp_roots_only(self):
        Phi = rat([4.0, 0.0, -3.0], [36.0, 0.0, -13.0, 0.0, 1.0])
        W, _ = spectral_factor(Phi)
        assert all(p.real < 0 for p in W.poles())
        assert all(z.real < 0 for z in W.zeros())

    def test_odd_part_rejected(self):
        with pytest.raises(SpectralFactorError):
            spectral_factor(rat([0.0, 1.0], [1.0, 0.0, -1.0]))

    def test_axis_zero_rejected(self):
        # numerator (s^2+1)^2 puts double zeros at +-j
        num = Polynomial([1.0, 0.0, 1.0]) * Polynomial([1.0, 0.0, 1.0])
        with pytest.raises(SpectralFactorError):
            spectral_factor(RationalFunction(num, Polynomial([4.0, 0.0, -1.0]),
                                             reduce=False))

    def test_sign_indefinite_rejected(self):
        # Phi = s^2 is even but negative on the axis
        with pytest.raises(SpectralFactorError):
            spectral_factor(rat([0.0, 0.0, 1.0], [1.0]))

    def test_negative_on_the_axis_rejected(self):
        # Phi = -1/(1 - s^2) = -1/(1 + w^2) on the axis: even, with its
        # roots at +-1 off the axis, so only the sign probes refuse it
        with pytest.raises(SpectralFactorError,
                           match="spectrum is not positive on the axis"):
            spectral_factor(rat([-1.0], [1.0, 0.0, -1.0]))

    def test_inner_quotient_for_zero_free_factors(self):
        # when W has no finite zeros, W(-s)^{-1} W(s) is inner
        Phi = rat([9.0], [4.0, 0.0, -5.0, 0.0, 1.0])
        W, Wbar = spectral_factor(Phi)
        assert is_inner(W / Wbar)


# -- W / Wbar: coprimality proved by a margin-shifted Routh test ---------


def stable_poles(degree, rng):
    """Poles like a coupled load's: conjugate pairs 0.005-0.5 left of
    the axis at frequencies 0.3-0.7 apart, plus one real pole when the
    degree is odd."""
    poles = []
    w = rng.uniform(0.6, 1.0)
    for _ in range(degree // 2):
        re = -rng.uniform(0.005, 0.5)
        poles += [complex(re, w), complex(re, -w)]
        w += rng.uniform(0.3, 0.7)
    if degree % 2:
        poles.append(-rng.uniform(0.2, 2.0))
    return poles


def inner_with_poles(poles):
    """The Blaschke product -prod (s + p)/(s - p) over the poles."""
    D = Polynomial.from_roots(poles)
    sign = 1.0 if D.degree % 2 else -1.0
    return RationalFunction(D.reflected().scaled(sign), D, reduce=False)


def wave_pair(den, num):
    """Operands shaped like an observable's (W, Wbar): num over den and
    a multiple of num over the mirror (-1)^n den(-s)."""
    sign = -1.0 if den.degree % 2 else 1.0
    return (RationalFunction(num, den, reduce=False),
            RationalFunction(num.scaled(-0.7), den.reflected().scaled(sign),
                             reduce=False))


def root_matched(a, b):
    """a / b for proportional numerators, reduced by root matching."""
    return RationalFunction(b.den.scaled(a.num.leading / b.num.leading),
                            a.den)


@pytest.fixture
def reductions(monkeypatch):
    """Records every root-matched reduction (_cancel_common call)."""
    calls = []
    cancel = ratfun._cancel_common
    monkeypatch.setattr(ratfun, "_cancel_common",
                        lambda num, den: calls.append(1) or cancel(num, den))
    return calls


class TestQuotientCoprimalityProof:
    def divide(self, a, b, reductions):
        """a / b and the number of root-matched reductions it ran."""
        reductions.clear()
        q = a / b
        return q, len(reductions)

    def assert_same(self, q, ref):
        assert same_bits(q.num.coeffs, ref.num.coeffs)
        assert same_bits(q.den.coeffs, ref.den.coeffs)

    @pytest.mark.parametrize("degree", range(1, 32))
    def test_blaschke_quotient_skips_root_matching(self, degree,
                                                   reductions):
        rng = np.random.default_rng(degree)
        den = Polynomial.from_roots(stable_poles(degree, rng))
        W, Wbar = wave_pair(den, Polynomial(rng.normal(size=degree)))
        for a, b in ((W, Wbar), (Wbar, W)):
            q, ran = self.divide(a, b, reductions)
            assert ran == 0
            self.assert_same(q, root_matched(a, b))

    @pytest.mark.parametrize("pole", [complex(-3e-8, 1.0),
                                      complex(-4e-6, 100.0)])
    def test_near_axis_pair_falls_back(self, pole, reductions):
        # the pole passes CoupledModelPair's stability margin (2e-8 and
        # 1.01e-6 here) but sits within MATCH_TOL of its mirror: root
        # matching cancels the pair, so the proof must refuse. At
        # 100i no Routh entry is small: only the margin refuses
        den = Polynomial.from_roots(
            [pole, pole.conjugate(),
             complex(-0.3, 1.7), complex(-0.3, -1.7), -1.0])
        W, Wbar = wave_pair(den, Polynomial([0.4, -1.0, 2.0]))
        for a, b in ((W, Wbar), (Wbar, W)):
            q, ran = self.divide(a, b, reductions)
            assert ran == 1
            assert q.den.degree == 3
            assert q.close_to(root_matched(a, b), tol=1e-12)

    def test_shared_root_falls_back(self, reductions):
        num = Polynomial([1.0, 2.0, 3.0])
        a = RationalFunction(num, Polynomial.from_roots([-1.0, -3.0]),
                             reduce=False)
        b = RationalFunction(num.scaled(-2.0),
                             Polynomial.from_roots([-1.0, 2.0]), reduce=False)
        q, ran = self.divide(a, b, reductions)
        assert ran == 1
        assert q.den.degree == 1
        assert q.close_to(root_matched(a, b), tol=1e-12)

    def test_unstable_operand_falls_back(self, reductions):
        den = Polynomial.from_roots(
            [0.5, complex(-0.3, 1.2), complex(-0.3, -1.2), -2.0])
        W, Wbar = wave_pair(den, Polynomial([1.0, -0.5, 0.25]))
        for a, b in ((W, Wbar), (Wbar, W)):
            q, ran = self.divide(a, b, reductions)
            assert ran == 1
            self.assert_same(q, root_matched(a, b))

    def test_degree_zero_operands(self, reductions):
        num = Polynomial([0.5, -1.0, 2.0, 1.0])
        den = Polynomial.from_roots([complex(-0.2, 1.0),
                                     complex(-0.2, -1.0), -1.0])
        cases = [
            (rat([3.0], [1.0]), rat([-1.5], [1.0])),
            wave_pair(den, Polynomial([2.5])),
            (RationalFunction(num, Polynomial.one(), reduce=False),
             RationalFunction(num.scaled(2.0), Polynomial.one(),
                              reduce=False)),
        ]
        for a, b in cases:
            for x, y in ((a, b), (b, a)):
                q, ran = self.divide(x, y, reductions)
                assert ran == 0
                self.assert_same(q, root_matched(x, y))

    @pytest.mark.parametrize("degree", [1, 2, 5, 12])
    def test_routh_margin_sits_at_minus_sigma(self, degree):
        poles = np.array(stable_poles(degree, np.random.default_rng(degree)))
        # a root 3e-10 beyond the margin leaves an entry too small to
        # trust: no proof, although its sign is right
        for edge, want in ((-0.33, True), (-0.27, False),
                           (-0.3 * (1 + 1e-9), False)):
            p = Polynomial.from_roots(poles + (edge - poles.real.max()))
            assert _hurwitz_beyond(p.coeffs.tolist(), 0.3) is want
            assert _hurwitz_beyond(p.reflected().coeffs.tolist(), 0.3) is False


# -- product identities: reference oracles for the closed forms ----------


def _vanishes(p, tol, scale):
    return bool(np.max(np.abs(p.coeffs)) <= tol * scale)


def odd_by_products(R, tol=1e-8):
    """Reference: R(-s) = -R(s) as num(s)den(-s) + num(-s)den(s) = 0."""
    odd = R.num * R.den.reflected() + R.num.reflected() * R.den
    return _vanishes(odd, tol, R.num.max_abs_coeff() * R.den.max_abs_coeff())


def even_by_products(R, tol=1e-8):
    """Reference: R(-s) = R(s) as num(s)den(-s) - num(-s)den(s) = 0."""
    cross = R.num * R.den.reflected() - R.num.reflected() * R.den
    return _vanishes(cross, tol,
                     R.num.max_abs_coeff() * R.den.max_abs_coeff())


def inner_by_products(R, tol=1e-8):
    """Reference: strictly stable poles and num(s)num(-s) = den(s)den(-s)."""
    if any(p.real >= -1e-8 * (1.0 + abs(p)) for p in R.poles()):
        return False
    lhs = R.num * R.num.reflected()
    rhs = R.den * R.den.reflected()
    scale = max(rhs.max_abs_coeff(), lhs.max_abs_coeff())
    return _vanishes(lhs - rhs, tol, scale)


def even_by_factor(Phi):
    """spectral_factor's verdict on evenness alone."""
    try:
        spectral_factor(Phi)
    except SpectralFactorError as exc:
        if "not an even function" in str(exc):
            return False
        raise
    return True


def foster_specs():
    """One load per dimension 1-13: k0 at odd dimensions, residues from
    U(0.2, 2), the first tank at U(0.6, 1.0), gaps 0.3 + U(0, 0.4)."""
    rng = np.random.default_rng(10)
    specs = []
    for dim in range(1, 14):
        k0 = float(rng.uniform(0.2, 2.0)) if dim % 2 else 0.0
        w = float(rng.uniform(0.6, 1.0))
        tanks = []
        for _ in range(dim // 2):
            tanks.append((float(rng.uniform(0.2, 2.0)), w))
            w += 0.3 + float(rng.uniform(0.0, 0.4))
        specs.append(FosterSpec(k0, tuple(tanks)))
    return specs


def nudged(p, parity, rng, eps=1e-6, size=0):
    """p, padded to `size` coefficients, with each coefficient at the
    degrees of the given parity moved by eps relative to itself (to the
    largest coefficient where it is zero), in random sign."""
    c = np.zeros(max(size, p.coeffs.size))
    c[: p.coeffs.size] = p.coeffs
    part = c[parity::2]
    scale = np.where(part == 0.0, p.max_abs_coeff(), np.abs(part))
    c[parity::2] += eps * scale * rng.choice([-1.0, 1.0], part.size)
    return Polynomial(c)


def acceptance_spectrum(spec, gain):
    """Acceptance 10's density gain^2 / (D+N)(s) (D+N)(-s) of Z = N/D."""
    Z = foster_to_rational(spec)
    DN = Z.den + Z.num
    den = DN * DN.reflected()
    return RationalFunction(
        Polynomial([gain * gain * np.sign(den.coeffs[0])]), den,
        reduce=False)


class TestClosedFormsMatchProducts:
    def test_oddness(self):
        rng = np.random.default_rng(11)
        for spec in foster_specs():
            Z = foster_to_rational(spec)
            q = Z.den.degree % 2  # den has q's parity, num the other
            cases = [
                (Z, True),
                (RationalFunction(nudged(Z.num, 1 - q, rng),
                                  nudged(Z.den, q, rng)), True),
                (RationalFunction(nudged(Z.num, q, rng, size=Z.den.degree + 1),
                                  Z.den), False),
                (RationalFunction(Z.num, nudged(Z.den, 1 - q, rng)), False),
            ]
            for R, odd in cases:
                assert odd_by_products(R) is odd
                assert is_lossless_pr(R) is odd, (spec, R)

    def test_inner(self):
        rng = np.random.default_rng(12)
        for degree in range(1, 14):
            pairs = (-rng.uniform(0.1, 2.0, degree // 2)
                     + 1j * rng.uniform(0.2, 3.0, degree // 2))
            reals = -rng.uniform(0.1, 2.0, degree % 2)
            D = Polynomial.from_roots(
                np.concatenate([pairs, pairs.conj(), reals]))
            for sign in (1.0, -1.0):
                cases = [
                    (RationalFunction(D.reflected().scaled(sign), D), True),
                    (RationalFunction([sign * D.coeffs[0]], D), False),
                    (RationalFunction(D.scaled(sign), D.reflected()), False),
                    (RationalFunction(
                        nudged(D.reflected().scaled(sign), degree % 2, rng),
                        D), False),
                ]
                for K, inner in cases:
                    assert inner_by_products(K) is inner
                    assert is_inner(K) is inner, (degree, sign, K)

    def test_evenness(self):
        rng = np.random.default_rng(13)
        for spec in foster_specs():
            Phi = acceptance_spectrum(spec, float(rng.uniform(0.5, 3.0)))
            odd_part = RationalFunction(Phi.num, nudged(Phi.den, 1, rng))
            assert even_by_products(Phi) and even_by_factor(Phi)
            assert not even_by_products(odd_part)
            assert not even_by_factor(odd_part)


# -- loop references for the kept scale and the Horner loop ---------------


def trim_loop(coeffs, rel_tol=0.0):
    """Reference: the two-reduction trim (finiteness, then the cutoff)."""
    c = np.array(coeffs, dtype=float, ndmin=1)
    if c.ndim != 1:
        raise ValueError("coefficient array must be one-dimensional")
    if not np.isfinite(c).all():
        raise ValueError("polynomial coefficients must be finite")
    cutoff = rel_tol * np.abs(c).max() if rel_tol and c.size else 0.0
    last = c.size
    while last > 0 and abs(c[last - 1]) <= cutoff:
        last -= 1
    return c[:last]


def horner_loop(coeffs, s):
    """Reference: Horner's rule on an array of s's shape."""
    s = np.asarray(s)
    out = np.zeros_like(s, dtype=complex if np.iscomplexobj(s) else float)
    for c in coeffs[::-1]:
        out = out * s + c
    return out if out.ndim else out[()]


_any_float = st.floats(allow_nan=False, allow_infinity=False, width=64)
_rel_tols = st.sampled_from([0.0, 1e-13, 1e-12, 1e-8, 0.5])


@st.composite
def coefficient_vectors(draw):
    """Random vectors, with trailing zeros of both signs, a tail under
    rel_tol of the largest coefficient, or all zeros."""
    rel_tol = draw(_rel_tols)
    head = draw(st.lists(_any_float, max_size=DEGREE_CAP + 3))
    kind = draw(st.sampled_from(["plain", "zeros", "tail", "all_zeros"]))
    if kind == "zeros":
        head += draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=1,
                              max_size=5))
    elif kind == "tail":
        scale = max(map(abs, head), default=1.0) or 1.0
        head += [u * rel_tol * scale for u in draw(st.lists(
            st.floats(min_value=-1.0, max_value=1.0), min_size=1,
            max_size=5))]
    elif kind == "all_zeros":
        head = [0.0] * len(head)
    return head, rel_tol


class TestKeptScale:
    @given(coefficient_vectors())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_reduction_trim(self, case):
        coeffs, rel_tol = case
        want = trim_loop(coeffs, rel_tol)
        if want.size == 0:
            want = np.zeros(1)
        if want.size - 1 > DEGREE_CAP:
            with pytest.raises(DegreeCapError):
                Polynomial(coeffs, rel_tol=rel_tol)
            return
        p = Polynomial(coeffs, rel_tol=rel_tol)
        assert same_bits(p.coeffs, want)
        scale = p.max_abs_coeff()
        assert type(scale) is float
        assert scale == float(np.max(np.abs(p.coeffs)))
        assert p.is_zero == (want.size == 1 and want[0] == 0.0)

    @given(coefficient_vectors(), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_non_finite_anywhere_is_refused(self, case, bad, where):
        # also inside a tail that the trim would drop
        coeffs, rel_tol = case
        coeffs.insert(where % (len(coeffs) + 1), bad)
        with pytest.raises(ValueError, match="finite"):
            Polynomial(coeffs, rel_tol=rel_tol)

    def test_refuses_a_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Polynomial(np.ones((2, 2)))


_points = st.floats(min_value=-50.0, max_value=50.0)


class TestHornerLoop:
    @given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1,
                    max_size=15), _points, _points)
    @settings(max_examples=200, deadline=None)
    def test_bits_and_type_match_the_array_loop(self, coeffs, re, im):
        p = Polynomial(coeffs)
        z = complex(re, im)
        for s in (re, z, np.float64(re), np.complex128(z), np.asarray(re),
                  np.asarray(z), np.array([re, im, re * im]),
                  np.array([z, z * z, 1j * im]), np.array([], dtype=float)):
            got, want = p(s), horner_loop(p.coeffs, s)
            assert type(got) is type(want)
            assert same_bits(got, want)

    def test_scalar_types(self):
        p = Polynomial([1.0, 0.0, 2.0])
        assert type(p(3.0)) is np.float64
        assert type(p(2)) is np.float64
        assert type(p(1j)) is np.complex128
        assert type(Polynomial.one()(np.zeros(3))) is np.ndarray


_nice_coeff = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=5.0),
    st.floats(min_value=-5.0, max_value=-1e-3),
)


@given(
    st.lists(_nice_coeff, min_size=1, max_size=5).filter(
        lambda c: any(abs(x) > 1e-3 for x in c)
    ),
    st.lists(_nice_coeff, min_size=1, max_size=5).filter(
        lambda c: abs(c[-1]) > 1e-3
    ),
)
@settings(max_examples=80, deadline=None)
def test_property_reflection_is_involution(nc, dc):
    # double reflection is the identity up to one re-normalization rounding
    R = RationalFunction(Polynomial(nc), Polynomial(dc), reduce=False)
    twice = R.reflected().reflected()
    assert twice.close_to(R, tol=1e-14)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_property_product_evaluates_pointwise(seed, npts):
    rng = np.random.default_rng(seed)
    p = Polynomial(rng.normal(size=4))
    q = Polynomial(rng.normal(size=3))
    for s in rng.normal(size=npts) + 1j * rng.normal(size=npts):
        assert (p * q)(s) == pytest.approx(p(s) * q(s), rel=1e-9, abs=1e-12)
