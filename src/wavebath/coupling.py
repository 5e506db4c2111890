"""Closing the wave boundary around a lossless load.

Coupling a load with impedance Z(s) = N(s)/D(s) to a matched
transmission medium splits the port variables into an incoming wave w
and an outgoing wave; eliminating either one yields two state
representations of the same trajectory,

    forward   xi' = Gamma xi     + 2 b0 w,      Gamma    = A - b0 c0,
    backward  xi' = Gamma_bar xi + 2 b0 wbar,   Gamma_bar = A + b0 c0.

The reflection map from the incoming wave to the outgoing wave
(outgoing measured positive) is the scattering function

    K(s) = (Z(s) - 1)/(Z(s) + 1) = -prod_i (s + lam_i)/(s - lam_i),

over lam = eig(Gamma): a finite Blaschke product. Every
LosslessRealization is certified at construction (A + A^T = 0,
b0 = c0^T, d = 0), so the pair's certificate is two identities,
Gamma_bar = -Gamma^T and Gamma + Gamma^T = -2 b0 b0^T: the spectra
mirror and Gamma is stable once the load is minimal; the coupled pair
checks just these and the pole margin.

The observable transfers come from the same algebra: the bath acts on
the load by state feedback, so every observable's transfers share the
pair's (Gamma, Gamma_bar, g). Their denominators are det(sI - Gamma),
expanded from the poles, and det(sI - Gamma_bar) =
(-1)^n det(-sI - Gamma). Their numerators are linear in the observable
(h, d) and share one basis for the pair: rows e_i adj(sI - Gamma) g,
read off one Hessenberg reduction of (Gamma, g). Rank-one feedback
along g moves the poles but not this numerator,

    adj(sI - A + g v^T) g = adj(sI - A) g    for every row v

(the matrix determinant lemma with Sherman-Morrison; "state feedback
does not move zeros", Kailath, Linear Systems, 1980), so
adj(sI - Gamma) g = adj(sI - Gamma_bar) g. With each side's 2 det row
and the rows' values and slopes at the poles of both sides, an
observable costs two small matrix products for the pair; a pole it
cannot see is cancelled by reading the numerator's value on it from
the basis, so no numerator root finding is run.
scattering_K maps an impedance's coefficients to K, for the round-trip
check of a synthesized load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ratfun import (MATCH_TOL, SNAP_TOL, Polynomial, RationalFunction,
                     _deflate_both, is_inner, is_lossless_pr,
                     spectral_factor)
from .realization import (
    ImproperImpedanceError,
    LosslessRealization,
    foster_from_rational,
    foster_realize,
)


class InvalidLoadError(ValueError):
    """A certified load (A + A^T = 0, b = c^T, d = 0) whose coupled pair
    fails its identities or its pole margin when closing the loops."""


class TrivialObservableError(ValueError):
    """Observable reads neither the state nor the port."""


class SynthesisStageError(ValueError):
    """A stage of the spectrum-to-load chain failed; .stage names it."""

    def __init__(self, stage, cause):
        self.stage = stage
        super().__init__(f"synthesis stage {stage!r}: {cause}")


@dataclass(frozen=True, eq=False)
class CoupledModelPair:
    """Forward/backward feedback matrices and the poles of K.

    Construction checks Gamma_bar + Gamma^T = 0 and
    Gamma + Gamma^T + g g^T / 2 = 0 (g = input_gain) to 1e-12 of the
    matrix scale, and refuses an eigenvalue of Gamma with
    Re lam >= -SNAP_TOL (1 + |lam|), the pole margin of is_inner. The
    eigenvalues are kept as `poles`; K is expanded on first access.
    """

    gamma: np.ndarray
    gamma_bar: np.ndarray
    input_gain: np.ndarray
    poles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        gb = np.array(self.gamma_bar, dtype=float)
        gain = np.array(self.input_gain, dtype=float).reshape(-1)
        n = g.shape[0]
        if g.shape != (n, n) or gb.shape != (n, n) or gain.size != n:
            raise ValueError("inconsistent dimensions in coupled pair")
        for arr in (g, gb, gain):
            arr.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "gamma_bar", gb)
        object.__setattr__(self, "input_gain", gain)
        half_ggt = 0.5 * np.outer(gain, gain)
        # np.maximum, unlike max, keeps a NaN residual for the test below
        res = np.maximum(mirror_residual(self),
                         np.abs(g + g.T + half_ggt).max())
        scale = max(np.abs(g).max(), np.abs(gb).max(), half_ggt.max())
        if not res <= 1e-12 * scale:
            raise ValueError(f"pair is not lossless: identity residual "
                             f"{res:.3e} at matrix scale {scale:.3e}")
        lam = np.linalg.eigvals(g)
        if not (lam.real < -SNAP_TOL * (1.0 + np.abs(lam))).all():
            raise ValueError(
                "load is not lossless-minimal: forward matrix not strictly "
                f"stable, max Re eig {lam.real.max():.3e}"
            )
        lam.setflags(write=False)
        object.__setattr__(self, "poles", lam)

    @property
    def dim(self):
        return self.gamma.shape[0]

    @cached_property
    def K(self) -> RationalFunction:
        """-prod (s + lam)/(s - lam) in coefficients; the numerator is
        (-1)^(n+1) den(-s). Raises DegreeCapError past DEGREE_CAP."""
        den = Polynomial.from_roots(self.poles)
        sign = 1.0 if self.dim % 2 else -1.0
        # coprime: den is Hurwitz and den(-s) anti-Hurwitz
        return RationalFunction(den.reflected().scaled(sign), den,
                                reduce=False)

    @cached_property
    def transfer_bases(self):
        """The _TransferBasis that observable_transfers reads for both
        sides.

        Built on first access from one O(n^3) Hessenberg reduction for
        the pair and no eigenproblem: Gamma and Gamma_bar are A under
        opposite rank-one feedback along g, which leaves
        adj(sI - Gamma) g = adj(sI - Gamma_bar) g, so the two sides
        share their adjugate rows. Every observable of the pair reads it.
        """
        den = self.K.den
        den_bar = den.reflected().scaled(-1.0 if self.dim % 2 else 1.0)
        return _TransferBasis.build(self.gamma, self.input_gain,
                                    (den, den_bar), self.poles)


@dataclass(frozen=True, eq=False)
class _TransferBasis:
    """The pair's linear maps from an observable to the numerators of
    its forward and backward wave transfers, over dens[0] =
    det(sI - Gamma) and dens[1] = det(sI - Gamma_bar).

    Row i of the n x n rows R = numer[:n, :n] holds the coefficients
    (lowest degree first) of e_i adj(sI - Gamma) g, which state feedback
    along g leaves equal to e_i adj(sI - Gamma_bar) g. Side 0 reads
    x_0 = (h, d) and side 1 x_1 = (-h_bar, d), the backward transfer's
    sign. `numer` is block diagonal, one block per side: block s is
    [R | 0] over side s's 2 det row times that sign, so
    (x_0, x_1) @ numer gives both numerators' n + 1 coefficients.
    `probe` has the same rows; its block s holds their values at
    poles[s] and then their first derivatives there, so
    (x_0, x_1) @ probe gives each numerator's value and slope at its own
    side's poles. poles[s] holds the side's n poles (lam, then -lam) and
    threshold[s] MATCH_TOL (1 + |pole|), the scale of the shared-pole
    test of observable_transfers.
    """

    numer: np.ndarray
    dens: tuple
    poles: np.ndarray
    probe: np.ndarray
    threshold: np.ndarray

    @classmethod
    def build(cls, gamma, gain, dens, poles):
        """Rows from the controller-Hessenberg form of (gamma, g), with
        no eigenproblem (Varga & Sima, Int. J. Control 33, 1981).

        Householder reflectors zero [g | gamma] below its subdiagonal,
        column by column: Q^T g = beta e_1 and H = Q^T gamma Q is upper
        Hessenberg, so adj(sI - gamma) g = beta Q adj(sI - H) e_1. Rows
        2..n of (sI - H) x = det e_1 give x = adj(sI - H) e_1 by Hyman's
        backward recurrence (Wilkinson, The Algebraic Eigenvalue
        Problem, 1965): x_n = prod h_{k,k-1},
        x_{k-1} = ((s - h_kk) x_k - sum_{j>k} h_kj x_j) / h_{k,k-1}. No
        x_k reaches degree n, so the rows have n coefficients. A lossless
        pair is controllable, so no h_{k,k-1} vanishes: an
        uncontrollable mode of Gamma + Gamma^T = -g g^T / 2 sits on the
        axis, where the pair's pole margin refuses it. One Horner pass
        over both sides, each at its own n poles, gives the probe."""
        n = gain.size
        m = np.column_stack([gain, gamma])  # [g | gamma]
        reflectors = []
        for k in range(n - 1):  # zero column k of m below row k
            v = _reflector(m[k:, k])
            m[k:] -= v[:, None] * (v @ m[k:])
            m[:, k + 1:] -= (m[:, k + 1:] @ v)[:, None] * v
            reflectors.append(v)
        beta, H = m[0, 0], m[:, 1:]
        x = np.zeros((n, n))
        x[n - 1, 0] = H.diagonal(-1).prod()
        for k in range(n - 1, 0, -1):
            acc = -(H[k, k:] @ x[k:])
            acc[1:] += x[k, :-1]  # s x_k
            x[k - 1] = acc / H[k, k - 1]
        for k in reversed(range(n - 1)):  # x <- Q x
            v = reflectors[k]
            x[k:] -= v[:, None] * (v @ x[k:])
        # side s: [R | 0] over its signed 2 det row, and its poles
        sides = np.zeros((2, n + 1, n + 1))
        sides[:, :n, :n] = beta * x
        sides[:, n] = 2.0 * dens[0].coeffs, -2.0 * dens[1].coeffs
        points = np.stack((poles, -poles))
        values = np.zeros((2, n + 1, n), dtype=complex)
        slopes = np.zeros_like(values)
        at = points[:, None]
        for k in reversed(range(n + 1)):  # Horner's rule with its derivative
            slopes = slopes * at + values
            values = values * at + sides[:, :, k, None]
        # block diagonal: side s's rows meet only its own columns
        numer = np.zeros((2, n + 1, 2, n + 1))
        probe = np.zeros((2, n + 1, 2, 2 * n), dtype=complex)
        for side in (0, 1):
            numer[side, :, side] = sides[side]
            probe[side, :, side] = np.hstack((values[side], slopes[side]))
        numer = numer.reshape(2 * n + 2, 2 * n + 2)
        probe = probe.reshape(2 * n + 2, 4 * n)
        threshold = MATCH_TOL * (1.0 + np.abs(points))
        for arr in (numer, points, probe, threshold):
            arr.setflags(write=False)
        return cls(numer, dens, points, probe, threshold)


def _reflector(x):
    """v with (I - v v^T) x = -sign(x_0) |x| e_1 for a nonzero x; the
    sign makes forming v cancel nothing."""
    v = np.array(x, dtype=float)
    v[0] += math.copysign(math.sqrt(v @ v), v[0])
    return v * math.sqrt(2.0 / (v @ v))


@dataclass(frozen=True, eq=False)
class Observable:
    """Scalar output y = c xi + d i0 read at the coupling port.

    h and h_bar are the effective state-read rows of the forward and
    backward representations (the port current i0 trades between the
    state and the wave differently in the two): h = c - d c0 and
    h_bar = c + d c0, so c is their mean."""

    h: np.ndarray
    h_bar: np.ndarray
    d: float

    def __post_init__(self):
        h = np.array(self.h, dtype=float).reshape(-1)
        hb = np.array(self.h_bar, dtype=float).reshape(-1)
        if h.size != hb.size:
            raise ValueError("observable rows disagree in length")
        for arr in (h, hb):
            arr.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_bar", hb)
        object.__setattr__(self, "d", float(self.d))
        if self.d == 0.0 and not self.c.any():
            raise TrivialObservableError(
                "observable must read the state or the port current"
            )

    @property
    def c(self):
        return (self.h + self.h_bar) / 2.0

    @classmethod
    def build(cls, load: LosslessRealization, c, d):
        """Make the observable rows for a given load's port row c0."""
        c = np.asarray(c, dtype=float).reshape(-1)
        port = d * load.ss.c    # d i0 read through the port row c0
        return cls(c - port, c + port, d)


def close_loops(load: LosslessRealization) -> CoupledModelPair:
    """Build the forward/backward pair of a lossless load.

    Forms Gamma = A - b0 c0 and Gamma_bar = A + b0 c0; the pair's
    constructor is the certificate. A load whose pair fails its
    identities or its pole margin (a non-minimal load has a mode on the
    axis) raises InvalidLoadError.
    """
    A, b0, c0 = load.ss.A, load.ss.b, load.ss.c
    outer = np.outer(b0, c0)
    try:
        return CoupledModelPair(A - outer, A + outer, 2.0 * b0)
    except ValueError as exc:
        raise InvalidLoadError(str(exc)) from exc


def scattering_K(Z0: RationalFunction) -> RationalFunction:
    """Reflection coefficient K = (Z0 - 1)/(Z0 + 1) = (N - D)/(N + D)
    of a strictly proper lossless load Z0 = N/D, which makes K inner
    with K(inf) = -1.
    """
    dn = Z0.num.degree
    dd = Z0.den.degree
    if dn is None or dn >= dd:
        raise ValueError("impedance must be strictly proper")
    if not is_lossless_pr(Z0):
        raise ValueError("impedance is not lossless positive-real")
    # coprime: Z0 is lossless positive-real, so N + D is Hurwitz and
    # N - D anti-Hurwitz
    return RationalFunction(Z0.num - Z0.den, Z0.num + Z0.den, reduce=False)


def observable_transfers(pair: CoupledModelPair, obs: Observable):
    """Forward and backward wave-to-output transfer functions.

    Forward: y responds to the incoming wave w through
    W(s) = 2 [h (sI - Gamma)^{-1} b0 + d]. Backward: y responds to the
    outgoing wave (outgoing-positive) through
    Wbar(s) = -2 [h_bar (sI - Gamma_bar)^{-1} b0 + d]. The quotient
    Wbar^{-1} W is the scattering function for every nontrivial
    observable — the reflection map does not depend on what you watch.

    Both come from the pair's own algebra, with g = 2 b0 = input_gain.
    The denominators are D = pair.K.den and Dbar(s) = (-1)^n D(-s),
    exact because Gamma_bar = -Gamma^T. The numerators are linear in
    (h, d) and (h_bar, d) over one set of rows e_i adj(sI - Gamma) g,
    which rank-one feedback along g leaves equal to
    e_i adj(sI - Gamma_bar) g. pair.transfer_bases holds them, each
    side's 2 D row and their values and slopes at the poles of both
    sides, so the two observable rows, stacked, take one product with
    the rows and one with the probe, and no eigenproblem. The first call
    on a pair builds the basis (one Hessenberg reduction for the pair).
    A pole is shared when the numerator vanishes there to first order,
    |num(r)| <= MATCH_TOL (1 + |r|) |num'(r)|: the Newton estimate of
    the distance to num's nearest root, on the scale root matching
    uses. No root of a numerator is computed.
    """
    basis = pair.transfer_bases
    n, d = obs.h.size, obs.d
    x = np.concatenate((obs.h, (d,), -obs.h_bar, (d,)))  # x_0, x_1
    nums = (x @ basis.numer).reshape(2, n + 1)
    at_poles = np.abs(x @ basis.probe).reshape(2, 2, n)
    shared = at_poles[:, 0] <= basis.threshold * at_poles[:, 1]
    # most observables see every pole: one test for both sides
    roots = ([basis.poles[side][shared[side]] for side in (0, 1)]
             if shared.any() else ((), ()))
    return (_port_transfer(basis, 0, nums[0], d, roots[0]),
            _port_transfer(basis, 1, nums[1], d, roots[1]))


def _port_transfer(basis, side, num, d, shared):
    """num / basis.dens[side], reduced.

    num is the side's row of the stacked product (x_0, x_1) @
    basis.numer, read off the rows both sides share (feedback along g
    leaves adj(sI - Gamma) g = adj(sI - Gamma_bar) g), and `shared`
    holds the side's poles that it vanishes on; they are deflated from
    both, so no root of num is computed. num is trimmed once, as the one
    Polynomial built. With d = 0 it is the adjugate part alone, trimmed
    at 1e-13 of its largest coefficient: its top coefficients cancel to
    rounding when h g = 0. Otherwise its degree is n, set by 2 d, and
    only its exact zeros are trimmed, so a small feedthrough d is kept.
    """
    num = Polynomial(num, rel_tol=0.0 if d else 1e-13)
    den = basis.dens[side]
    if len(shared):
        num, den = _deflate_both(num, den, shared)
    # coprime: every root of den that num vanishes on is deflated
    return RationalFunction(num, den, reduce=False)


def invert_K_to_Z(K: RationalFunction) -> RationalFunction:
    """Solve K = N/D = (Z-1)/(Z+1) for Z = (1+K)/(1-K) = (D+N)/(D-N).

    Requires K inner with K(inf) = -1 (the no-feedthrough class); an
    inner K with K(inf) = +1 would need an impedance growing at
    infinity and is rejected. The constant K = -1 returns the
    degenerate short circuit Z = 0.
    """
    if not is_inner(K):
        raise ValueError("scattering function must be inner")
    kinf = K.at_infinity()
    if kinf is None or abs(kinf + 1.0) > 1e-8:
        raise ImproperImpedanceError(
            f"K(infinity) = {kinf!r}, need -1; impedance would be improper"
        )
    # coprime and lossless: K inner with K(inf) = -1 makes D + N and
    # D - N the even and odd parts of the Hurwitz D (up to sign and a
    # factor 2), whose roots lie on the axis and interlace
    # (Hermite-Biehler); foster_from_rational and scattering_K certify Z
    return RationalFunction(K.den + K.num, K.den - K.num, reduce=False)


@dataclass(frozen=True, eq=False)
class SynthesisChain:
    """Intermediate products of run_synthesis, for reporting."""

    spectrum: RationalFunction
    W: RationalFunction
    Wbar: RationalFunction
    K: RationalFunction
    impedance: RationalFunction
    foster: object
    load: LosslessRealization
    pair: CoupledModelPair


def run_synthesis(Phi: RationalFunction) -> SynthesisChain:
    """Synthesize a bath-coupled load whose output spectrum is Phi.

    Chain: spectral factorization, scattering quotient of the factor
    pair, impedance inversion, partial-fraction extraction,
    realization, loop closure. Each stage failure is re-raised as a
    SynthesisStageError naming the stage.
    """
    def stage(name, fn, *args):
        try:
            return fn(*args)
        except (ValueError, ZeroDivisionError) as exc:
            raise SynthesisStageError(name, exc) from exc

    W, Wbar = stage("factor", spectral_factor, Phi)
    K = stage("scatter", lambda: W / Wbar)
    Z = stage("invert", invert_K_to_Z, K)
    if Z.is_zero:
        raise SynthesisStageError("invert", "spectrum inverts to a short circuit")
    spec = stage("foster", foster_from_rational, Z)
    load = stage("realize", foster_realize, spec)
    pair = stage("couple", close_loops, load)
    return SynthesisChain(Phi, W, Wbar, K, Z, spec, load, pair)


# ---------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------


# allpass_residual's 200 points 1j w, w log-spaced over [1e-3, 1e3]
_AXIS_GRID = 1j * np.logspace(-3.0, 3.0, 200)
_AXIS_GRID.setflags(write=False)


def mirror_residual(pair: CoupledModelPair) -> float:
    """max |Gamma_bar + Gamma^T|: zero makes eig(Gamma_bar) = -eig(Gamma)."""
    return float(np.abs(pair.gamma_bar + pair.gamma.T).max())


def allpass_residual(K: RationalFunction) -> float:
    """Max deviation of |K(jw)| from 1 on a log grid w in [1e-3, 1e3]."""
    vals = np.abs(K.evaluate(_AXIS_GRID))
    return float(np.abs(vals - 1.0).max())


def coupling_report(pair: CoupledModelPair) -> dict:
    """JSON-ready summary: spectra, K coefficients, residuals.

    gamma_bar_eigs is -eig(Gamma), read off the pair's poles with no
    second eigenproblem, by the identity Gamma_bar = -Gamma^T that the
    pair certified at construction. The reported mirror_residual
    r = max |Gamma_bar + Gamma^T|, which couple checks, bounds how far
    eig(Gamma_bar) sits from it: within n r cond(V) by Bauer-Fike, V the
    eigenvectors of Gamma. The spectrum is formed as 0.0 - lam, so a
    real pole's imaginary part stays +0.0 (-lam would make it -0.0).
    """
    ef = np.sort_complex(pair.poles)
    eb = np.sort_complex(0.0 - pair.poles)
    return {
        "gamma_eigs": [[z.real, z.imag] for z in ef],
        "gamma_bar_eigs": [[z.real, z.imag] for z in eb],
        "K_num": pair.K.num.coeffs.tolist(),
        "K_den": pair.K.den.coeffs.tolist(),
        "allpass_residual": allpass_residual(pair.K),
        "mirror_residual": mirror_residual(pair),
    }
