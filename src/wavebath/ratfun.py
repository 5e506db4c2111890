"""Real polynomials and rational functions on the complex plane.

Everything downstream (impedance synthesis, scattering, spectral
factorization) works with real-coefficient rational functions, so this
module keeps the conventions in one place:

* coefficients are stored lowest degree first, e.g. ``[1.0, 0.0, 2.0]``
  is ``1 + 2 s**2``;
* the zero polynomial has degree ``None`` (never a negative number);
* polynomials add, subtract and multiply; rational functions do not.
  A rational function is built from a (num, den) pair that its caller
  formed as polynomials, from text, or as a quotient, and otherwise
  only negated or reflected;
* rational functions are normalized on construction: common root pairs
  are cancelled by root matching (relative tolerance ``MATCH_TOL``)
  unless the construction says why its operands are coprime
  (reduce=False), and the denominator is made monic. A quotient of
  proportional numerators whose denominators lie on opposite sides of
  the axis, as in W / Wbar, is coprime and skips root matching. Each
  polynomial runs the Routh tests of that proof once
  (Polynomial.half_planes), so the W / Wbar of a pair's observables,
  which share both denominators, pay them once;
* roots within ``SNAP_TOL`` of the imaginary axis (``_axis_distance``)
  are axis roots; foster_data reads a residue at 1j Im p, moving no root.

The symmetry predicates read closed forms off the reduced (num, den)
and form no product: inner iff num = +-den(-s) over a stable den, odd
iff one of num, den is even and the other odd, even iff both are even.
The lossless test reads the Foster data (foster_data): by Foster's
reactance theorem, simple axis poles with positive residues put the
zeros on the axis, interlaced, so it finds no zeros.

Degrees are capped at ``DEGREE_CAP``; operations that would exceed
the cap raise ``DegreeCapError`` instead of silently producing
ill-conditioned high-degree coefficient vectors.
"""

from __future__ import annotations

import math

import numpy as np

DEGREE_CAP = 32

# Relative distance below which a numerator root and a denominator root
# are considered the same root (pole/zero cancellation).
MATCH_TOL = 1e-7

# Relative distance from the imaginary axis below which a root is
# treated as lying on the axis.
SNAP_TOL = 1e-8

# Relative tolerance of the parity and inner tests, and the floor of a
# lossless impedance's residues.
SYMMETRY_TOL = 1e-8


class DegreeCapError(ValueError):
    """A polynomial operation would exceed the supported degree."""


class PoleEvaluationError(ZeroDivisionError):
    """Rational function evaluated at (or numerically on top of) a pole."""


class SpectralFactorError(ValueError):
    """Spectrum is not factorable: axis roots, sign changes, odd part, ..."""


def _trim(coeffs, rel_tol=0.0):
    """(c, scale): the coefficients as a fresh float array without the
    high-order ones at/below rel_tol * scale, scale = max|coeff| (0.0
    when nothing is kept). One list of magnitudes serves the finiteness
    check, which covers the dropped coefficients too, the scale and the
    trim point; at these lengths Python's builtins over a list beat
    numpy's per-call cost."""
    c = np.array(coeffs, dtype=float, ndmin=1)
    if c.ndim != 1:
        raise ValueError("coefficient array must be one-dimensional")
    mags = list(map(abs, c.tolist()))
    if not all(map(math.isfinite, mags)):
        raise ValueError("polynomial coefficients must be finite")
    scale = max(mags, default=0.0)
    cutoff = rel_tol * scale
    last = len(mags)
    while last > 0 and mags[last - 1] <= cutoff:
        last -= 1
    # a kept coefficient exceeds the cutoff, so the largest one is kept
    return c[:last], scale if last else 0.0


class Polynomial:
    """Real polynomial, coefficients lowest degree first.

    Thin immutable wrapper over a float ndarray; supports the sum,
    difference and product of two polynomials (a constant is
    Polynomial([a]); no scalar is coerced), evaluation (Horner),
    differentiation, the reflection p(s) -> p(-s), and root extraction
    with conjugate symmetrization.

    The largest coefficient magnitude, which _trim finds anyway, is
    kept: max_abs_coeff() reads it, and the zero polynomial is the one
    whose scale is 0.
    """

    __slots__ = ("coeffs", "_scale", "_half_planes")

    def __init__(self, coeffs, rel_tol=0.0):
        c, scale = _trim(coeffs, rel_tol)
        if c.size == 0:
            c = np.zeros(1)
        if c.size - 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {c.size - 1} exceeds cap {DEGREE_CAP}"
            )
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_scale", scale)
        c.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls([0.0])

    @classmethod
    def one(cls):
        return cls([1.0])

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        """Monic-times-``leading`` polynomial with the given roots.

        Complex roots must come in conjugate pairs (tolerance-matched);
        pairs are multiplied out as real quadratics so the coefficient
        vector stays exactly real.
        """
        reals, pairs = _split_conjugate(np.asarray(roots, dtype=complex))
        c = np.array([float(leading)])
        for r in reals:
            c = np.convolve(c, [-r, 1.0])
        for z in pairs:
            c = np.convolve(c, [abs(z) ** 2, -2.0 * z.real, 1.0])
        return cls(c)

    # -- structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        if self.is_zero:
            return None
        return self.coeffs.size - 1

    @property
    def is_zero(self):
        return self._scale == 0.0

    @property
    def leading(self):
        return float(self.coeffs[-1])

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(self.coeffs.size, other.coeffs.size)
        c = np.zeros(n)
        c[: self.coeffs.size] += self.coeffs
        c[: other.coeffs.size] += other.coeffs
        return Polynomial(c)

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def scaled(self, a):
        return Polynomial(self.coeffs * float(a))

    # -- analysis ----------------------------------------------------

    def __call__(self, s):
        """p(s) by Horner's rule, for a number or an array s; a number
        gives a numpy scalar. s goes in as an array even when it is a
        number: numpy's array loop for the complex product may fuse its
        multiply-add (FMA) where scalar arithmetic does not, and a number
        must give the bits an array entry gets."""
        s = np.asarray(s)
        out = 0.0
        for c in reversed(self.coeffs.tolist()):
            out = out * s + c
        return out

    def derivative(self):
        if self.coeffs.size == 1:
            return Polynomial.zero()
        k = np.arange(1, self.coeffs.size)
        return Polynomial(self.coeffs[1:] * k)

    def reflected(self):
        """p(s) -> p(-s): flip the sign of odd-degree coefficients."""
        c = self.coeffs.copy()
        c[1::2] *= -1.0
        return Polynomial(c)

    def roots(self):
        """All complex roots, conjugate-symmetrized.

        numpy's companion-matrix roots of a real polynomial can come
        back with slightly asymmetric conjugate pairs; we re-pair them
        so downstream factor reconstruction stays exactly real.
        """
        if self.is_zero:
            raise ValueError("zero polynomial has no root set")
        if self.degree == 0:
            return np.array([], dtype=complex)
        r = np.roots(self.coeffs[::-1])
        reals, pairs = _split_conjugate(r)
        upper = np.array(pairs, dtype=complex)
        out = np.concatenate(
            [reals.astype(complex),
             np.stack([upper, upper.conj()], axis=1).reshape(-1)])
        return out[np.lexsort((out.imag, out.real))]  # stable sort

    def max_abs_coeff(self):
        return self._scale

    @property
    def half_planes(self):
        """(left, right): whether every root has Re < -sigma, and whether
        every root has Re > sigma, for sigma = MATCH_TOL (1 + R), R
        Fujiwara's bound on the root moduli. Routh's test on p and on
        p(-s), run on first access and kept: a polynomial of positive
        degree is on one side at most, and a nonzero constant, with no
        root, is on both.

        Opposite verdicts prove two polynomials coprime without a root:
        their roots are more than sigma_p + sigma_q apart, while root
        matching (_cancel_common) pairs a numerator root r within
        MATCH_TOL (1 + |r|) <= sigma_num, so it would cancel nothing
        unless np.roots misplaced a root by more than that.
        """
        try:
            return self._half_planes
        except AttributeError:
            pass
        c = self.coeffs.tolist()
        sigma = MATCH_TOL * (1.0 + _root_bound(c))
        left = _hurwitz_beyond(c, sigma)
        right = ((len(c) == 1 or not left) and _hurwitz_beyond(
            [-x if k % 2 else x for k, x in enumerate(c)], sigma))
        object.__setattr__(self, "_half_planes", (left, right))
        return left, right


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


def _split_conjugate(roots, tol=1e-6):
    """Split a root set into (real_roots, upper_half_pairs).

    Roots with small imaginary part (relative tol against magnitude)
    are treated as real. When the upper half-plane roots are exactly
    the conjugates of the lower ones (as LAPACK returns the eigenvalues
    of a real matrix) they are the pairs as they stand. Otherwise the
    upper ones are greedily matched with their conjugates; unmatched
    leftovers are forced real, which only happens for badly perturbed
    inputs.
    """
    roots = np.asarray(roots, dtype=complex).reshape(-1)
    is_real = np.abs(roots.imag) <= tol * (1.0 + np.abs(roots))
    upper = roots[~is_real & (roots.imag > 0)]
    upper = upper[np.lexsort((upper.imag, upper.real))]
    lower = roots[~is_real & (roots.imag < 0)]
    reals = roots.real[is_real]
    if upper.size == lower.size:
        mirrored = lower.conj()
        mirrored = mirrored[np.lexsort((mirrored.imag, mirrored.real))]
        if np.array_equal(upper, mirrored):
            return reals, upper.tolist()
    reals = reals.tolist()
    lower = lower.tolist()
    pairs = []
    for z in upper.tolist():
        if not lower:
            reals.append(z.real)
            continue
        j = int(np.argmin([abs(z - w.conjugate()) for w in lower]))
        w = lower.pop(j)
        pairs.append(complex((z.real + w.real) / 2, (z.imag - w.imag) / 2))
    for w in lower:  # unmatched lower-half leftovers
        reals.append(w.real)
    return np.array(reals, dtype=float), pairs


def _deflate(p, factor):
    """Quotient of p by a monic real factor of degree 1 or 2 (its
    coefficients lowest degree first); the remainder is discarded.

    Synthetic division damps the rounding it carries when it runs from
    the end the factor's roots dominate (Peters & Wilkinson, "Practical
    problems arising in the solution of polynomial equations", 1971):
    from the top coefficient when their modulus is at most the
    geometric mean of p's root moduli, |p_0 / p_n|^(1/n), and from the
    constant term otherwise. Run the other way, a root of modulus 6 in
    a degree-24 numerator costs seven digits.
    """
    c = p.coeffs.tolist()
    f = list(factor)
    k = len(f) - 1
    q = [0.0] * (len(c) - k)
    if not q:
        return Polynomial.zero()
    if abs(f[0]) ** (1.0 / k) <= abs(c[0] / c[-1]) ** (1.0 / (len(c) - 1)):
        for i in reversed(range(len(q))):
            q[i] = c[i + k]
            for j in range(k):
                c[i + j] -= q[i] * f[j]
    else:
        for i in range(len(q)):
            q[i] = c[i] / f[0]
            for j in range(1, k + 1):
                c[i + j] -= q[i] * f[j]
    return Polynomial(q)


def _cancel_common(num, den):
    """Cancel matched root pairs between num and den by deflation."""
    nr = list(num.roots())
    dr = list(den.roots())
    matched = []
    for r in nr:
        if not dr:
            break
        dist = [abs(r - d) for d in dr]
        j = int(np.argmin(dist))
        if dist[j] <= MATCH_TOL * (1.0 + abs(r)):
            matched.append((r + dr.pop(j)) / 2)
    if not matched:
        return num, den
    return _deflate_both(num, den, np.array(matched))


def _deflate_both(num, den, roots):
    """Divide num and den by the real factors of a root set, paired by
    _split_conjugate (conjugate pairs as real quadratics)."""
    reals, pairs = _split_conjugate(roots)
    factors = ([(-r, 1.0) for r in reals]
               + [(abs(z) ** 2, -2.0 * z.real, 1.0) for z in pairs])
    for f in factors:
        num = _deflate(num, f)
        den = _deflate(den, f)
    return num, den


# Share of the terms it is formed from that a shifted coefficient or a
# Routh first-column entry must keep for its sign to be trusted. On
# degree-31 W / Wbar denominators the first column is within 1e-8
# (relative) of exact rational arithmetic, and no entry keeps less
# than 1.7% of its terms.
_ROUTH_TRUST = 1e-6


def _root_bound(c):
    """Fujiwara's bound on the root moduli of the polynomial with
    coefficients c (lowest degree first)."""
    n = len(c) - 1
    if n == 0:
        return 0.0
    lead = abs(c[-1])
    terms = [abs(c[k] / lead) ** (1.0 / (n - k)) for k in range(1, n)]
    terms.append(abs(c[0] / (2.0 * lead)) ** (1.0 / n))
    return 2.0 * max(terms)


def _hurwitz_beyond(c, sigma):
    """Whether every root of the polynomial with coefficients c (lowest
    degree first) has real part below -sigma.

    Routh's test on p(s - sigma) (Gantmacher, The Theory of Matrices,
    vol. 2, ch. XV): O(n^2), in plain floats, which beat numpy's
    per-call cost at these degrees. An entry that is not positive, or
    that lost its sign to cancellation, gives False.
    """
    n = len(c) - 1
    a = c[::-1] if c[-1] > 0 else [-x for x in c[::-1]]  # highest first
    size = [abs(x) for x in a]
    for i in range(n):  # Taylor shift by -sigma
        for j in range(1, n + 1 - i):
            a[j] -= sigma * a[j - 1]
            size[j] += sigma * size[j - 1]
    if not all(x > _ROUTH_TRUST * m for x, m in zip(a, size)):
        return False
    r0, r1 = a[0::2], a[1::2]
    while r1:
        q = r0[0] / r1[0]
        b = r1[1:] + [0.0] * (len(r0) - len(r1))
        row = [x - q * y for x, y in zip(r0[1:], b)]
        if row and not row[0] > _ROUTH_TRUST * (abs(r0[1]) + abs(q * b[0])):
            return False
        r0, r1 = r1, row
    return True


class RationalFunction:
    """Quotient of two real polynomials, kept in reduced monic form.

    Construction cancels common roots (relative tolerance MATCH_TOL)
    and scales so the denominator is monic. The zero function is
    represented as 0/1. Every instance is reduced: a construction with
    reduce=False states why its operands are coprime. The operations
    are negation, reflection and division by another RationalFunction;
    there is no sum or product. Division with proportional numerators
    skips root matching when the operands' denominators lie on opposite
    sides of the axis (half_planes).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, reduce=True):
        num = num if isinstance(num, Polynomial) else Polynomial(num, rel_tol=1e-12)
        den = den if isinstance(den, Polynomial) else Polynomial(den, rel_tol=1e-12)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Polynomial.zero(), Polynomial.one()
        elif reduce:
            num, den = _cancel_common(num, den)
        lead = den.leading
        if lead != 1.0:
            num = num.scaled(1.0 / lead)
            den = den.scaled(1.0 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self):
        return self.num.is_zero

    def __repr__(self):
        return (
            f"RationalFunction({self.num.coeffs.tolist()}, "
            f"{self.den.coeffs.tolist()})"
        )

    # -- evaluation ---------------------------------------------------

    def evaluate(self, s):
        """Evaluate R(s) for a number or an array s (a number gives a
        numpy scalar); raises PoleEvaluationError on top of a pole.

        The pole guard is relative: |den(s)| is compared against
        sum_k |c_k| |s|^k, the scale of the rounding error Horner's rule
        can make in it, so the check behaves the same for impedances
        normalized differently and does not grow faster than den itself.
        """
        dv = self.den(s)
        scale = Polynomial(np.abs(self.den.coeffs))(np.abs(s))
        if np.any(np.abs(dv) <= 1e-12 * scale):
            raise PoleEvaluationError(f"evaluation at/near a pole (s={s!r})")
        return self.num(s) / dv

    def at_infinity(self):
        """Limit of R(s) as |s| -> infinity (None when improper)."""
        dn, dd = self.num.degree, self.den.degree
        if dn is None:
            return 0.0
        if dn < dd:
            return 0.0
        if dn == dd:
            return self.num.leading / self.den.leading
        return None

    # -- operations ---------------------------------------------------

    def __neg__(self):
        # coprime: negation keeps the roots of the reduced self
        return RationalFunction(-self.num, self.den, reduce=False)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        k = _proportional(self.num, other.num)
        if k is not None:
            # proportional numerators cancel exactly; multiplying them
            # out and deflating the matched roots back off would amplify
            # whatever noise the operands carry. The quotient, other.den
            # scaled (which moves no root) over self.den, skips root
            # matching when their half_planes verdicts are opposite. W /
            # Wbar has a Hurwitz and an anti-Hurwitz side, and the
            # observables of one pair share both denominators, so the
            # verdicts are computed once per pair
            left, right = self.den.half_planes
            num_left, num_right = other.den.half_planes
            coprime = (num_left and right) or (num_right and left)
            return RationalFunction(other.den.scaled(k), self.den,
                                    reduce=not coprime)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def reflected(self):
        """R(s) -> R(-s)."""
        # coprime: s -> -s moves both root sets alike
        return RationalFunction(
            self.num.reflected(), self.den.reflected(), reduce=False
        )

    # -- structure ----------------------------------------------------

    def poles(self):
        if self.den.degree == 0:
            return np.array([], dtype=complex)
        return self.den.roots()

    def zeros(self):
        if self.is_zero or self.num.degree == 0:
            return np.array([], dtype=complex)
        return self.num.roots()

    def close_to(self, other, tol=1e-9):
        """Coefficientwise comparison of the reduced normal forms."""
        scale = max(
            self.num.max_abs_coeff(), other.num.max_abs_coeff(),
            self.den.max_abs_coeff(), other.den.max_abs_coeff(), 1.0,
        )
        return _poly_close(self.num, other.num, tol, scale) and _poly_close(
            self.den, other.den, tol, scale
        )

    # -- serialization -------------------------------------------------

    def to_text(self):
        """Render as ``num_coeffs ; den_coeffs``, lowest degree first."""
        n = " ".join("%.17g" % c for c in self.num.coeffs)
        d = " ".join("%.17g" % c for c in self.den.coeffs)
        return f"{n} ; {d}"

    @classmethod
    def from_text(cls, text):
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError(
                "rational text form must be 'num_coeffs ; den_coeffs'"
            )
        try:
            num = [float(x) for x in parts[0].split()]
            den = [float(x) for x in parts[1].split()]
        except ValueError as exc:
            raise ValueError(f"bad coefficient in rational text: {exc}") from exc
        if not num or not den:
            raise ValueError("both coefficient lists must be nonempty")
        return cls(num, den)


def _proportional(p, q, tol=1e-8):
    """The scalar k with p = k q to relative tol, or None."""
    if p.is_zero or q.is_zero or p.coeffs.size != q.coeffs.size:
        return None
    k = p.leading / q.leading
    scale = max(p.max_abs_coeff(), abs(k) * q.max_abs_coeff())
    if np.max(np.abs(p.coeffs - k * q.coeffs)) <= tol * scale:
        return float(k)
    return None


def _has_parity(p, parity):
    """Whether p's coefficients of the other parity (0 even, 1 odd)
    vanish to SYMMETRY_TOL of its largest coefficient."""
    wrong = p.coeffs[1 - parity::2]
    return wrong.size == 0 or bool(
        np.max(np.abs(wrong)) <= SYMMETRY_TOL * p.max_abs_coeff())


def _poly_close(p, q, tol, scale):
    a, b = p.coeffs, q.coeffs
    n = max(a.size, b.size)
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: a.size] = a
    pb[: b.size] = b
    return bool(np.max(np.abs(pa - pb)) <= tol * scale)


# ---------------------------------------------------------------------
# classification predicates
# ---------------------------------------------------------------------


def _axis_distance(root):
    return abs(root.real) / (1.0 + abs(root))


def foster_data(R):
    """Finite Foster data (k0, tanks) of a lossless impedance R, or None.

    R is lossless iff it is odd, has at most a simple pole at infinity,
    with a positive coefficient, and its finite poles are simple and on
    the imaginary axis with real positive residues: k0 at the origin
    (0 when absent) and the (residue, omega) tanks at +-j omega, omega
    increasing. By Foster's reactance theorem the zeros then lie on the
    axis, interlaced with the poles, so none is computed.

    R is odd iff, in its reduced form, den has the parity of its
    degree and num the other one.
    """
    if R.is_zero:
        return None
    dn, dd = R.num.degree, R.den.degree
    if dn - dd > 1:
        return None
    if not (_has_parity(R.den, dd % 2) and _has_parity(R.num, 1 - dd % 2)):
        return None
    if dn == dd + 1 and R.num.leading / R.den.leading <= 0:
        return None
    poles = R.poles()
    if (any(_axis_distance(p) > SNAP_TOL for p in poles)
            or not _all_simple(poles)):
        return None
    dden = R.den.derivative()
    k0 = 0.0
    tanks = []
    for p in poles:
        if p.imag == 0.0:  # a real root on the axis is the origin
            k0 = float(R.num(0.0) / dden(0.0))
            if not k0 > SYMMETRY_TOL:
                return None
        elif p.imag > 0.0:  # its conjugate partner has the same residue
            s = complex(0.0, p.imag)
            res = R.num(s) / dden(s)
            if not (res.real > SYMMETRY_TOL
                    and abs(res.imag) <= 1e-6 * abs(res)):
                return None
            tanks.append((float(res.real), float(p.imag)))
    tanks.sort(key=lambda t: t[1])
    return k0, tuple(tanks)


def is_lossless_pr(R):
    """True iff R is the impedance of a lossless one-port (foster_data)."""
    return foster_data(R) is not None


def _all_simple(roots, tol=1e-6):
    roots = np.asarray(roots)
    for i in range(roots.size):
        for j in range(i + 1, roots.size):
            sep = abs(roots[i] - roots[j])
            if sep <= tol * (1.0 + abs(roots[i])):
                return False
    return True


def is_inner(R):
    """True iff R is inner (all-pass): stable and |R(jw)| = 1.

    Stability is strict: every pole p has Re p < -SNAP_TOL (1 + |p|).
    Routh's test on den proves that without finding a root when every
    pole lies past the wider margin SNAP_TOL (1 + R), R a bound on the
    pole moduli; otherwise the poles are found and checked one by one.
    For the reduced form over a stable den, num(s)num(-s) =
    den(s)den(-s) holds iff num = +-den(-s), the sign taken from the
    leading coefficients.
    """
    if R.is_zero:
        return False
    den = R.den.coeffs.tolist()
    if not _hurwitz_beyond(den, SNAP_TOL * (1.0 + _root_bound(den))):
        for p in R.poles():
            if p.real >= -SNAP_TOL * (1.0 + abs(p)):
                return False
    mirror = R.den.reflected()
    mirror = mirror.scaled(np.sign(R.num.leading * mirror.leading))
    scale = max(R.num.max_abs_coeff(), mirror.max_abs_coeff())
    return _poly_close(R.num, mirror, SYMMETRY_TOL, scale)


# ---------------------------------------------------------------------
# spectral factorization
# ---------------------------------------------------------------------


def spectral_factor(Phi):
    """Factor an even, axis-positive spectrum as Phi(s) = W(s) W(-s).

    W collects the open-left-half-plane roots of numerator and
    denominator with a positive gain, so W is stable with stable
    inverse-denominator and W(-s) carries the mirrored roots.

    Raises SpectralFactorError when Phi is not even, has roots on the
    imaginary axis (factor would be lossy/marginal), or is not
    positive along the axis.

    Phi is even iff num and den of its reduced form are both even.
    W and W(-s) share no root, so their product is not reduced.
    """
    if Phi.is_zero:
        raise SpectralFactorError("zero spectrum cannot be factored")
    if not (_has_parity(Phi.num, 0) and _has_parity(Phi.den, 0)):
        raise SpectralFactorError("spectrum is not an even function")
    num_roots = Phi.zeros()
    den_roots = Phi.poles()
    for r in list(num_roots) + list(den_roots):
        if _axis_distance(r) <= SNAP_TOL:
            raise SpectralFactorError(
                f"root {r} on the imaginary axis; factorization is singular"
            )
    zn = [r for r in num_roots if r.real < 0]
    pn = [r for r in den_roots if r.real < 0]
    if 2 * len(zn) != len(num_roots) or 2 * len(pn) != len(den_roots):
        raise SpectralFactorError("roots do not split evenly across the axis")
    phi0 = Phi.evaluate(0.0)
    if phi0 <= 0:
        raise SpectralFactorError("spectrum is not positive on the axis")
    # probe a few axis points to catch sign flips from conditioning bugs
    for w in (0.37, 1.0, 2.83):
        if Phi.evaluate(1j * w).real <= 0:
            raise SpectralFactorError("spectrum is not positive on the axis")
    wn = Polynomial.from_roots(zn)
    wd = Polynomial.from_roots(pn)
    # gain fixed by matching at s = 0 (safe: no axis roots)
    g2 = phi0 * wd(0.0) ** 2 / wn(0.0) ** 2
    if g2 <= 0:
        raise SpectralFactorError("factor gain is not positive")
    # coprime: wn and wd take disjoint subsets of the reduced Phi's roots
    W = RationalFunction(wn.scaled(np.sqrt(g2)), wd, reduce=False)
    Wbar = W.reflected()
    # coprime: num and den carry all of Phi's num and den roots
    prod = RationalFunction(W.num * Wbar.num, W.den * Wbar.den, reduce=False)
    if not prod.close_to(Phi, tol=1e-6):
        raise SpectralFactorError("factor product failed to reproduce spectrum")
    return W, Wbar
