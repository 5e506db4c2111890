"""Real polynomials and rational functions on the complex plane.

Everything downstream (impedance synthesis, scattering, spectral
factorization) works with real-coefficient rational functions, so this
module keeps the conventions in one place:

* coefficients are stored lowest degree first, e.g. ``[1.0, 0.0, 2.0]``
  is ``1 + 2 s**2``;
* the zero polynomial has degree ``None`` (never a negative number);
* rational functions are normalized on construction: common root pairs
  are cancelled by root matching (relative tolerance ``MATCH_TOL``) and
  the denominator is made monic;
* roots within ``SNAP_TOL`` (relative) of the imaginary axis are
  classified as axis roots, and returned snapped onto it.

The symmetry predicates read closed forms off the reduced (num, den)
and form no product: inner iff num = +-den(-s) over a stable den, odd
iff one of num, den is even and the other odd, even iff both are even.

Degrees are capped at ``DEGREE_CAP``; operations that would exceed
the cap raise ``DegreeCapError`` instead of silently producing
ill-conditioned high-degree coefficient vectors.
"""

from __future__ import annotations

import numpy as np

DEGREE_CAP = 32

# Relative distance below which a numerator root and a denominator root
# are considered the same root (pole/zero cancellation).
MATCH_TOL = 1e-7

# Relative distance from the imaginary axis below which a root is
# treated as lying on the axis.
SNAP_TOL = 1e-8


class DegreeCapError(ValueError):
    """A polynomial operation would exceed the supported degree."""


class PoleEvaluationError(ZeroDivisionError):
    """Rational function evaluated at (or numerically on top of) a pole."""


class SpectralFactorError(ValueError):
    """Spectrum is not factorable: axis roots, sign changes, odd part, ..."""


def _trim(coeffs, rel_tol=0.0):
    """Drop high-order coefficients at/below rel_tol * max|coeff|."""
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


class Polynomial:
    """Real polynomial, coefficients lowest degree first.

    Thin immutable wrapper over a float ndarray; supports the ring
    operations, evaluation (Horner), differentiation, the reflection
    p(s) -> p(-s), and root extraction with conjugate symmetrization.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, rel_tol=0.0):
        c = _trim(coeffs, rel_tol)
        if c.size == 0:
            c = np.zeros(1)
        if c.size - 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {c.size - 1} exceeds cap {DEGREE_CAP}"
            )
        object.__setattr__(self, "coeffs", c)
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
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    @property
    def leading(self):
        return float(self.coeffs[-1])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs.size == other.coeffs.size and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

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

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scaled(self, a):
        return Polynomial(self.coeffs * float(a))

    # -- analysis ----------------------------------------------------

    def __call__(self, s):
        s = np.asarray(s)
        out = np.zeros_like(s, dtype=complex if np.iscomplexobj(s) else float)
        for c in self.coeffs[::-1]:
            out = out * s + c
        return out if out.ndim else out[()]

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
        return float(np.max(np.abs(self.coeffs)))


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if np.isscalar(x):
        return Polynomial([float(x)])
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


def _deflate_real(p, r):
    """Synthetic division of p by (s - r); remainder is discarded."""
    c = p.coeffs[::-1]  # highest first for the classic recurrence
    out = np.empty(c.size - 1)
    acc = c[0]
    for i in range(c.size - 1):
        out[i] = acc
        acc = c[i + 1] + r * acc
    return Polynomial(out[::-1])


def _deflate_pair(p, z):
    """Divide p by the real quadratic (s^2 - 2 Re z s + |z|^2)."""
    b = -2.0 * z.real
    c0 = abs(z) ** 2
    c = p.coeffs[::-1]
    n = c.size - 2
    out = np.zeros(n)
    work = c.astype(float).copy()
    for i in range(n):
        out[i] = work[i]
        work[i + 1] -= b * out[i]
        work[i + 2] -= c0 * out[i]
    return Polynomial(out[::-1])


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
    for r in reals:
        num = _deflate_real(num, r)
        den = _deflate_real(den, r)
    for z in pairs:
        num = _deflate_pair(num, z)
        den = _deflate_pair(den, z)
    return num, den


def cancel_known_roots(num, den, roots):
    """Deflate from num and den the given roots of den that num shares.

    A root r counts as shared when num vanishes there to first order,
    |num(r)| <= MATCH_TOL (1 + |r|) |num'(r)|: the Newton estimate of
    the distance to num's nearest root, on the scale root matching
    uses. The roots must be closed under conjugation; no root of num
    is computed.
    """
    roots = np.asarray(roots, dtype=complex)
    slope = np.abs(num.derivative()(roots))
    shared = np.abs(num(roots)) <= MATCH_TOL * (1.0 + np.abs(roots)) * slope
    if not shared.any():
        return num, den
    return _deflate_both(num, den, roots[shared])


class RationalFunction:
    """Quotient of two real polynomials, kept in reduced monic form.

    Construction cancels common roots (relative tolerance MATCH_TOL)
    and scales so the denominator is monic. The zero function is
    represented as 0/1.
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

    @classmethod
    def constant(cls, a):
        return cls(Polynomial([float(a)]), Polynomial.one(), reduce=False)

    @property
    def is_zero(self):
        return self.num.is_zero

    def __repr__(self):
        return (
            f"RationalFunction({self.num.coeffs.tolist()}, "
            f"{self.den.coeffs.tolist()})"
        )

    # -- evaluation ---------------------------------------------------

    def __call__(self, s):
        return self.evaluate(s)

    def evaluate(self, s):
        """Evaluate R(s); raises PoleEvaluationError on top of a pole.

        The pole guard is relative: |den(s)| is compared against
        sum_k |c_k| |s|^k, the scale of the rounding error Horner's rule
        can make in it, so the check behaves the same for impedances
        normalized differently and does not grow faster than den itself.
        """
        s_arr = np.asarray(s)
        dv = self.den(s_arr)
        scale = Polynomial(np.abs(self.den.coeffs))(np.abs(s_arr))
        if np.any(np.abs(dv) <= 1e-12 * scale):
            raise PoleEvaluationError(f"evaluation at/near a pole (s={s!r})")
        return self.num(s_arr) / dv

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

    # -- field operations ---------------------------------------------

    def __add__(self, other):
        other = _as_rational(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-_as_rational(other))

    def __rsub__(self, other):
        return _as_rational(other) + (-self)

    def __mul__(self, other):
        other = _as_rational(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        k = _proportional(self.num, other.num)
        if k is not None:
            # proportional numerators cancel exactly; multiplying them
            # out and deflating the matched roots back off would amplify
            # whatever noise the operands carry
            return RationalFunction(other.den.scaled(k), self.den)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rational(other) / self

    def reflected(self):
        """R(s) -> R(-s)."""
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
        other = _as_rational(other)
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


def _as_rational(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x, Polynomial.one(), reduce=False)
    if np.isscalar(x):
        return RationalFunction.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")


def _has_parity(p, parity, tol):
    """Whether p's coefficients of the other parity (0 even, 1 odd)
    vanish to tol of its largest coefficient."""
    wrong = p.coeffs[1 - parity::2]
    return wrong.size == 0 or bool(
        np.max(np.abs(wrong)) <= tol * p.max_abs_coeff())


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


def _snap_to_axis(root):
    return complex(0.0, root.imag)


def is_lossless_pr(R, tol=1e-8):
    """True iff R is the impedance of a lossless one-port.

    Checks, in order: R odd, at most a simple pole at infinity with
    positive coefficient, all finite poles simple and on the imaginary
    axis with real positive residues, all zeros on the axis, and
    pole/zero alternation along the nonnegative axis.

    R is odd iff, in its reduced form, den has the parity of its
    degree and num the other one.
    """
    R = _as_rational(R)
    if R.is_zero:
        return False
    dn, dd = R.num.degree, R.den.degree
    if dn - dd > 1:
        return False
    if not (_has_parity(R.den, dd % 2, tol)
            and _has_parity(R.num, 1 - dd % 2, tol)):
        return False
    # simple pole at infinity needs positive gain
    if dn == dd + 1 and R.num.leading / R.den.leading <= 0:
        return False
    poles = R.poles()
    if any(_axis_distance(p) > SNAP_TOL for p in poles):
        return False
    if not _all_simple(poles):
        return False
    dden = R.den.derivative()
    pole_freqs = []
    for p in poles:
        if p.imag < -SNAP_TOL * (1 + abs(p)):
            continue  # conjugate partner carries the same residue
        ps = _snap_to_axis(p)
        res = R.num(ps) / dden(ps)
        if not (res.real > tol and abs(res.imag) <= 1e-6 * abs(res)):
            return False
        pole_freqs.append(abs(ps.imag))
    zeros = R.zeros()
    if any(_axis_distance(z) > SNAP_TOL for z in zeros):
        return False
    zero_freqs = sorted(
        {abs(z.imag) for z in zeros if z.imag > -SNAP_TOL * (1 + abs(z))}
    )
    return _alternates(sorted(pole_freqs), zero_freqs)


def _all_simple(roots, tol=1e-6):
    roots = np.asarray(roots)
    for i in range(roots.size):
        for j in range(i + 1, roots.size):
            sep = abs(roots[i] - roots[j])
            if sep <= tol * (1.0 + abs(roots[i])):
                return False
    return True


def _alternates(pole_freqs, zero_freqs):
    """Strict alternation of pole/zero frequencies on [0, inf)."""
    tagged = sorted(
        [(w, "p") for w in pole_freqs] + [(w, "z") for w in zero_freqs]
    )
    for (w1, t1), (w2, t2) in zip(tagged, tagged[1:]):
        if t1 == t2:
            return False
    return True


def is_inner(R, tol=1e-8):
    """True iff R is inner (all-pass): stable and |R(jw)| = 1.

    Stability is strict (every pole in the open left half-plane). For
    the reduced form over a stable den, num(s)num(-s) = den(s)den(-s)
    holds iff num = +-den(-s), the sign taken from the leading
    coefficients.
    """
    R = _as_rational(R)
    if R.is_zero:
        return False
    for p in R.poles():
        if p.real >= -SNAP_TOL * (1.0 + abs(p)):
            return False
    mirror = R.den.reflected()
    mirror = mirror.scaled(np.sign(R.num.leading * mirror.leading))
    scale = max(R.num.max_abs_coeff(), mirror.max_abs_coeff())
    return _poly_close(R.num, mirror, tol, scale)


# ---------------------------------------------------------------------
# spectral factorization
# ---------------------------------------------------------------------


def spectral_factor(Phi, tol=1e-8):
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
    Phi = _as_rational(Phi)
    if Phi.is_zero:
        raise SpectralFactorError("zero spectrum cannot be factored")
    if not (_has_parity(Phi.num, 0, tol) and _has_parity(Phi.den, 0, tol)):
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
    W = RationalFunction(wn.scaled(np.sqrt(g2)), wd, reduce=False)
    Wbar = W.reflected()
    prod = RationalFunction(W.num * Wbar.num, W.den * Wbar.den, reduce=False)
    if not prod.close_to(Phi, tol=1e-6):
        raise SpectralFactorError("factor product failed to reproduce spectrum")
    return W, Wbar
