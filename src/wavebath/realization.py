"""State-space realizations of proper lossless impedances.

A lossless one-port that is strictly proper decomposes into a
partial-fraction (Foster) form

    Z(s) = k0/s + sum_i 2 k_i s / (s**2 + omega_i**2),

one storage branch per pole group. The realization built here places
the k0 branch first and then one 2x2 rotation block per tank, scaled
so that the stored energy is the plain Euclidean quadratic form: the
certificate pair becomes  A^T Omega + Omega A = 0, Omega b = c^T  with
Omega = I. That normalization keeps golden fixtures stable and makes
the boundary integrator's energy bookkeeping exact.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .ratfun import Polynomial, RationalFunction, SNAP_TOL, is_lossless_pr


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
    """State space plus the quadratic energy metric certifying losslessness.

    Construction checks the certificate; pass validate=False to wrap a
    deliberately perturbed system for diagnostic runs.
    """

    ss: StateSpace
    omega: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        om = np.array(self.omega, dtype=float)
        n = self.ss.dim
        if om.shape != (n, n):
            raise ValueError(f"omega must be {n}x{n}, got {om.shape}")
        om.setflags(write=False)
        object.__setattr__(self, "omega", om)
        if validate:
            *residuals, _ = _certificate_residuals(self)
            if not _certified(*residuals):
                raise ValueError("energy certificate violated: lyapunov %.3e, "
                                 "gain %.3e, max Re eig %.3e" % tuple(residuals))

    @property
    def dim(self):
        return self.ss.dim

    def stored_energy(self, xi):
        xi = np.asarray(xi, dtype=float)
        return 0.5 * float(xi @ self.omega @ xi)


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of the lossless energy certificate plus minimality margins."""

    lyapunov_residual: float
    gain_residual: float
    max_real_eig: float
    controllability_margin: float
    observability_margin: float
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", _certified(
            self.lyapunov_residual, self.gain_residual, self.max_real_eig))


def foster_to_rational(spec: FosterSpec) -> RationalFunction:
    """Expand the partial-fraction form over the common denominator."""
    terms = []
    if spec.k0 > 0:
        terms.append((Polynomial([spec.k0]), Polynomial([0.0, 1.0])))
    for k, w in spec.tanks:
        terms.append((Polynomial([0.0, 2.0 * k]), Polynomial([w * w, 0.0, 1.0])))
    if not terms:
        raise DegenerateLoadError("load needs k0 > 0 or at least one tank")
    num = Polynomial.zero()
    den = Polynomial.one()
    for tn, td in terms:
        num = num * td + tn * den
        den = den * td
    # coprime: the branch poles are distinct and each keeps its residue
    return RationalFunction(num, den, reduce=False)


def foster_realize(spec: FosterSpec) -> LosslessRealization:
    """Build the block realization with identity energy metric.

    Branch blocks: the pole at the origin contributes the scalar block
    A = [0], b = c = [sqrt(k0)]; each tank contributes the rotation
    block A = [[0, w], [-w, 0]] with b = c^T = (0, sqrt(2 k))^T. Both
    satisfy A^T + A = 0 and b = c^T, so Omega = I certifies the whole
    assembly.
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
    return LosslessRealization(StateSpace(A, b, c, 0.0), np.eye(n))


def verify_lossless_certificate(r: LosslessRealization) -> CertificateReport:
    """Report scaled residuals of the certificate equations.

    Residuals are normalized by the magnitude of the data they involve
    so a perturbation of size eps shows up as a residual of order eps
    regardless of the load's scale. Only this report runs the PBH SVDs.
    """
    lyap, gain, max_re, eigs = _certificate_residuals(r)
    ctrb = _pbh_margin(r.ss.A, r.ss.b, eigs)
    obsv = _pbh_margin(r.ss.A.T, r.ss.c, eigs)
    return CertificateReport(lyap, gain, max_re, ctrb, obsv)


def _certificate_residuals(r):
    """(lyapunov, gain, max |Re eig A|, eig A) of a realization."""
    A, b, c = r.ss.A, r.ss.b, r.ss.c
    om = r.omega
    scale_a = max(np.max(np.abs(A)) * np.max(np.abs(om)), 1e-30)
    lyap = np.max(np.abs(A.T @ om + om @ A)) / scale_a if A.size else 0.0
    scale_b = max(np.max(np.abs(b)) * np.max(np.abs(om)), np.max(np.abs(c)), 1e-30)
    gain = np.max(np.abs(om @ b - c)) / scale_b
    eigs = np.linalg.eigvals(A)
    max_re = float(np.max(np.abs(eigs.real))) if eigs.size else 0.0
    return float(lyap), float(gain), max_re, eigs


def _certified(lyap, gain, max_re):
    return bool(lyap < 1e-8 and gain < 1e-8 and max_re < 1e-8)


def _pbh_margin(A, v, eigs):
    """Smallest singular value of [lambda I - A | v] over the spectrum."""
    n = A.shape[0]
    margin = np.inf
    for lam in eigs:
        M = np.hstack([lam * np.eye(n) - A, v.reshape(-1, 1)])
        margin = min(margin, np.linalg.svd(M, compute_uv=False)[-1])
    return float(margin if np.isfinite(margin) else 0.0)


def transfer_function(ss: StateSpace) -> RationalFunction:
    """Resolve c (sI - A)^{-1} b + d as a reduced rational function.

    Uses the Leverrier iteration: the characteristic polynomial and
    the adjugate expansion come out of one pass of matrix products, so
    no symbolic work and no per-frequency solves are needed.
    """
    A, b, c, d = ss.A, ss.b, ss.c, ss.d
    n = ss.dim
    B = np.eye(n)
    den_high = np.empty(n + 1)
    den_high[0] = 1.0
    num_high = np.empty(n)
    for k in range(1, n + 1):
        num_high[k - 1] = c @ B @ b
        AB = A @ B
        a = -np.trace(AB) / k
        den_high[k] = a
        B = AB + a * np.eye(n)
    num = Polynomial(num_high[::-1].copy(), rel_tol=1e-13)
    den = Polynomial(den_high[::-1].copy(), rel_tol=0.0)
    if d != 0.0:
        num = num + den.scaled(d)
    return RationalFunction(num, den)


def foster_from_rational(Z: RationalFunction, tol=1e-8) -> FosterSpec:
    """Recover the partial-fraction data of a strictly proper lossless Z.

    Residues are extracted at the numerically located poles; every
    residue must come out real and positive, otherwise the extraction
    aborts with the offending pole in the message.
    """
    if Z.is_zero:
        raise FosterExtractionError("zero impedance has no branch data")
    dn = Z.num.degree or 0
    dd = Z.den.degree or 0
    if dn > dd:
        raise ImproperImpedanceError(
            "impedance grows at infinity; series-inductor loads are not "
            "realizable as proper feedback loads"
        )
    if not is_lossless_pr(Z, tol=tol):
        raise FosterExtractionError(
            "impedance is not lossless positive-real; cannot expand"
        )
    dden = Z.den.derivative()
    k0 = 0.0
    tanks = []
    for p in Z.poles():
        if abs(p) <= SNAP_TOL:
            res = (Z.num(0.0) / dden(0.0)).real
            if res <= 0:
                raise FosterExtractionError(
                    f"pole at origin carries non-positive residue {res}"
                )
            k0 = res
        elif p.imag > 0:
            ps = complex(0.0, p.imag)
            res = Z.num(ps) / dden(ps)
            if not (res.real > 0 and abs(res.imag) <= 1e-6 * abs(res)):
                raise FosterExtractionError(
                    f"pole at {ps} carries non-real/non-positive residue {res}"
                )
            tanks.append((res.real, p.imag))
    tanks.sort(key=lambda t: t[1])
    spec = FosterSpec(k0, tuple(tanks))
    if not foster_to_rational(spec).close_to(Z, tol=1e-6):
        raise FosterExtractionError(
            "partial-fraction reconstruction drifted from the input; "
            "poles may be ill-separated"
        )
    return spec


def autonomous_flow(spec: FosterSpec, t: float) -> np.ndarray:
    """Exact propagator exp(A t) of the realized load, block by block.

    The k0 branch is constant; each tank block rotates at its own
    frequency, so the flow assembles from 2x2 rotations with no
    integration error beyond the trig evaluations.
    """
    n = spec.state_dim
    U = np.eye(n)
    i = 1 if spec.k0 > 0 else 0
    for _, w in spec.tanks:
        ct, st_ = np.cos(w * t), np.sin(w * t)
        U[i: i + 2, i: i + 2] = [[ct, st_], [-st_, ct]]
        i += 2
    return U


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
