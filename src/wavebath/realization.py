"""State-space realizations of proper lossless impedances.

A lossless one-port that is strictly proper decomposes into a
partial-fraction (Foster) form

    Z(s) = k0/s + sum_i 2 k_i s / (s**2 + omega_i**2),

one storage branch per pole group. The realization built here places
the k0 branch first and then one 2x2 rotation block per tank, scaled
so that the stored energy is the plain Euclidean form |xi|^2 / 2
(the energy metric Omega = I). Its certificate is three identities,
A + A^T = 0, b = c^T and d = 0, and a LosslessRealization is exactly
a state space that satisfies them. That normalization keeps golden
fixtures stable and makes the boundary integrator's energy
bookkeeping exact.

The way back has two entries. foster_from_realization reads the data
off the spectrum of the realization's skew A, with no polynomial in
s; foster_from_rational takes them from an impedance's coefficients,
which is what inverse synthesis holds, as the lossless test
ratfun.foster_data reads them: poles and residues, and no zero
(Foster's reactance theorem).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratfun import (DEGREE_CAP, SNAP_TOL, Polynomial, RationalFunction,
                     foster_data)


class FosterParseError(ValueError):
    """Malformed partial-fraction text form."""


class DegenerateLoadError(ValueError):
    """Load with no storage branches at all."""


class ImproperImpedanceError(ValueError):
    """Impedance grows at infinity (series-inductor term); not realizable
    as a proper feedback load."""


class FosterExtractionError(ValueError):
    """Partial-fraction extraction failed; message carries diagnostics."""


@dataclass(frozen=True)
class FosterSpec:
    """Partial-fraction data of a strictly proper lossless impedance.

    k0 is the residue of the pole at the origin (0 when absent); tanks
    is a tuple of (k_i, omega_i) residue/frequency pairs with strictly
    increasing omega_i.
    """

    k0: float = 0.0
    tanks: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "k0", float(self.k0))
        object.__setattr__(
            self, "tanks", tuple((float(k), float(w)) for k, w in self.tanks)
        )
        if not np.isfinite(self.k0) or self.k0 < 0:
            raise ValueError(f"k0 must be finite and >= 0, got {self.k0}")
        for k, w in self.tanks:
            if not (np.isfinite(k) and k > 0):
                raise ValueError(f"tank residue must be > 0, got {k}")
            if not (np.isfinite(w) and w > 0):
                raise ValueError(f"tank frequency must be > 0, got {w}")
        freqs = [w for _, w in self.tanks]
        if any(w2 <= w1 for w1, w2 in zip(freqs, freqs[1:])):
            raise ValueError("tank frequencies must be strictly increasing")
        if self.k0 == 0 and not self.tanks:
            raise DegenerateLoadError("load needs k0 > 0 or at least one tank")

    @property
    def state_dim(self):
        return (1 if self.k0 > 0 else 0) + 2 * len(self.tanks)

    # -- text form ----------------------------------------------------

    def to_text(self):
        parts = ["k0 = %.17g" % self.k0]
        parts += ["tank = %.17g,%.17g" % (k, w) for k, w in self.tanks]
        return "; ".join(parts)

    @classmethod
    def from_text(cls, text):
        """Parse ``k0 = <val>; tank = <k>,<omega>; tank = ...``.

        Tank entries may come in any order; they are sorted by
        frequency before validation.
        """
        k0 = 0.0
        seen_k0 = False
        tanks = []
        for raw in text.split(";"):
            part = raw.strip()
            if not part:
                continue
            key, eq, val = part.partition("=")
            if not eq:
                raise FosterParseError(f"expected 'key = value', got {part!r}")
            key = key.strip().lower()
            if key == "k0":
                if seen_k0:
                    raise FosterParseError("duplicate k0 entry")
                seen_k0 = True
                k0 = _parse_float(val, "k0")
            elif key == "tank":
                pieces = val.split(",")
                if len(pieces) != 2:
                    raise FosterParseError(
                        f"tank needs 'residue,frequency', got {val.strip()!r}"
                    )
                tanks.append(
                    (_parse_float(pieces[0], "tank residue"),
                     _parse_float(pieces[1], "tank frequency"))
                )
            else:
                raise FosterParseError(f"unknown key {key!r}")
        tanks.sort(key=lambda t: t[1])
        try:
            return cls(k0, tuple(tanks))
        except DegenerateLoadError:
            raise
        except ValueError as exc:
            raise FosterParseError(str(exc)) from exc


def _parse_float(text, what):
    try:
        v = float(text)
    except ValueError as exc:
        raise FosterParseError(f"bad {what}: {text.strip()!r}") from exc
    return v


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Single-input single-output linear system (A, b, c, d)."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float = 0.0

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        c = np.array(self.c, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if b.size != n or c.size != n:
            raise ValueError(
                f"b/c lengths {b.size}/{c.size} do not match state dim {n}"
            )
        for arr in (A, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", float(self.d))

    @property
    def dim(self):
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class LosslessRealization:
    """A lossless load in its Omega = I realization.

    Construction checks A + A^T = 0 and b = c^T, each to 1e-8 of the
    data it involves, and d = 0, and raises one ValueError naming all
    three residuals otherwise. The stored energy is |xi|^2 / 2. No
    eigenvalue is computed: by Bendixson's bound,
    |Re lam| <= |(A + A^T) / 2|_2, so the skew identity already holds
    the spectrum to the axis.
    """

    ss: StateSpace

    def __post_init__(self):
        lyap, gain = _certificate_residuals(self.ss)
        if not (lyap < 1e-8 and gain < 1e-8 and self.ss.d == 0.0):
            raise ValueError("energy certificate violated: lyapunov %.3e, "
                             "gain %.3e, feedthrough %.3e"
                             % (lyap, gain, self.ss.d))

    @property
    def dim(self):
        return self.ss.dim


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of the lossless energy certificate plus minimality margins.

    The report carries the numbers and no verdict: a LosslessRealization
    is certified when it is built, and synth checks the two residuals
    against the same 1e-8.
    """

    lyapunov_residual: float
    gain_residual: float
    controllability_margin: float
    observability_margin: float


def foster_to_rational(spec: FosterSpec) -> RationalFunction:
    """Expand the partial-fraction form over the common denominator.

    The branches are multiplied out on raw coefficient arrays, by the
    np.convolve calls and sums that Polynomial arithmetic would run, in
    its order, and each side is wrapped as a Polynomial once: the same
    bits with two objects built. Every coefficient is a sum of products
    of the positive k0, 2 k_i and omega_i^2, so no top coefficient
    cancels and the two products of a sum have one length. The
    expansion stops at the first denominator past DEGREE_CAP, which the
    wrap refuses at that degree.
    """
    terms = []
    if spec.k0 > 0:
        terms.append((np.array([spec.k0]), np.array([0.0, 1.0])))
    for k, w in spec.tanks:
        terms.append((np.array([0.0, 2.0 * k]), np.array([w * w, 0.0, 1.0])))
    if not terms:
        raise DegenerateLoadError("load needs k0 > 0 or at least one tank")
    num, den = terms[0]
    for tn, td in terms[1:]:
        num = np.convolve(num, td) + np.convolve(tn, den)
        den = np.convolve(den, td)
        if den.size > DEGREE_CAP + 1:
            break
    # coprime: the branch poles are distinct and each keeps its residue
    return RationalFunction(Polynomial(num), Polynomial(den), reduce=False)


def foster_realize(spec: FosterSpec) -> LosslessRealization:
    """Build the block realization with identity energy metric.

    Branch blocks: the pole at the origin contributes the scalar block
    A = [0], b = c = [sqrt(k0)]; each tank contributes the rotation
    block A = [[0, w], [-w, 0]] with b = c^T = (0, sqrt(2 k))^T. Both
    satisfy A^T + A = 0 and b = c^T, and d = 0, so the whole assembly
    is certified.
    """
    n = spec.state_dim
    A = np.zeros((n, n))
    b = np.zeros(n)
    c = np.zeros(n)
    i = 0
    if spec.k0 > 0:
        g = np.sqrt(spec.k0)
        b[0] = g
        c[0] = g
        i = 1
    for k, w in spec.tanks:
        A[i, i + 1] = w
        A[i + 1, i] = -w
        g = np.sqrt(2.0 * k)
        b[i + 1] = g
        c[i + 1] = g
        i += 2
    return LosslessRealization(StateSpace(A, b, c, 0.0))


def verify_lossless_certificate(r: LosslessRealization) -> CertificateReport:
    """Report scaled residuals of the certificate equations.

    Residuals are normalized by the magnitude of the data they involve
    so a perturbation of size eps shows up as a residual of order eps
    regardless of the load's scale. Only this report runs the PBH SVDs.

    One PBH loop gives both margins. The certificate makes b = c^T and
    A = -A^T, so [lam I - A^T | c] = [lam I + A | b], the conjugate of
    -[conj(lam) I - A | -b] for lam on the axis: the observability
    margin at lam is the controllability margin at conj(lam), which is
    an eigenvalue too.
    """
    lyap, gain = _certificate_residuals(r.ss)
    margin = _pbh_margin(r.ss.A, r.ss.b, np.linalg.eigvals(r.ss.A))
    return CertificateReport(lyap, gain, margin, margin)


def _certificate_residuals(ss):
    """(max |A + A^T| / max |A|, max |b - c| / max(|b|, |c|))."""
    A, b, c = ss.A, ss.b, ss.c
    lyap = np.abs(A.T + A).max() / max(np.abs(A).max(), 1e-30)
    gain = np.abs(b - c).max() / max(np.abs(b).max(), np.abs(c).max(), 1e-30)
    return float(lyap), float(gain)


def _pbh_margin(A, v, eigs):
    """Smallest singular value of [lambda I - A | v] over the spectrum."""
    n = A.shape[0]
    margin = np.inf
    for lam in eigs:
        M = np.hstack([lam * np.eye(n) - A, v.reshape(-1, 1)])
        margin = min(margin, np.linalg.svd(M, compute_uv=False)[-1])
    return float(margin if np.isfinite(margin) else 0.0)


def foster_from_realization(r: LosslessRealization) -> FosterSpec:
    """Read the partial-fraction data of an Omega = I load off eig(A).

    A is skew there, so 1j A is Hermitian: eigh gives 1j A = V diag(mu)
    V^H with V unitary, and c (sI - A)^{-1} b = sum_i (c V)_i (V^H b)_i
    / (s + 1j mu_i). The poles with |mu| <= SNAP_TOL carry k0; each
    mu > SNAP_TOL is a tank at omega = mu whose residue is that pole's,
    real since b = c^T. A normal matrix's eigenproblem is perfectly
    conditioned (Bauer-Fike with cond(V) = 1), so no polynomial in s is
    formed and the load size is not limited by coefficients.
    """
    mu, V = np.linalg.eigh(1j * r.ss.A)
    res = ((r.ss.c @ V) * (V.conj().T @ r.ss.b)).real
    origin = np.abs(mu) <= SNAP_TOL
    tanks = mu > SNAP_TOL
    return FosterSpec(float(np.sum(res[origin])),
                      tuple(zip(res[tanks].tolist(), mu[tanks].tolist())))


def foster_from_rational(Z: RationalFunction) -> FosterSpec:
    """Recover the partial-fraction data of a strictly proper lossless Z.

    The data are ratfun.foster_data's, read at the numerically located
    poles; a Z that is not lossless is refused, and so is a
    reconstruction that drifts from Z.
    """
    if Z.is_zero:
        raise FosterExtractionError("zero impedance has no branch data")
    if Z.at_infinity() is None:
        raise ImproperImpedanceError(
            "impedance grows at infinity; series-inductor loads are not "
            "realizable as proper feedback loads"
        )
    data = foster_data(Z)
    if data is None:
        raise FosterExtractionError(
            "impedance is not lossless positive-real; cannot expand"
        )
    spec = FosterSpec(*data)
    if not foster_to_rational(spec).close_to(Z, tol=1e-6):
        raise FosterExtractionError(
            "partial-fraction reconstruction drifted from the input; "
            "poles may be ill-separated"
        )
    return spec


def random_foster(rng, max_tanks=3, require_k0=False, min_gap=0.3,
                  freq_range=(0.3, 4.0), res_range=(0.2, 2.0)):
    """Draw a random well-separated load for property tests and demos.

    Frequencies are spaced at least min_gap apart so root matching and
    residue extraction stay well conditioned.
    """
    n_tanks = int(rng.integers(0, max_tanks + 1))
    with_k0 = True if require_k0 or n_tanks == 0 else bool(rng.integers(0, 2))
    k0 = float(rng.uniform(*res_range)) if with_k0 else 0.0
    lo, hi = freq_range
    freqs = []
    w = lo + float(rng.uniform(0, min_gap))
    for _ in range(n_tanks):
        freqs.append(w)
        w += min_gap + float(rng.uniform(0, (hi - lo) / max(1, n_tanks)))
    tanks = tuple((float(rng.uniform(*res_range)), f) for f in freqs)
    return FosterSpec(k0, tanks)
