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

over lam = eig(Gamma): a finite Blaschke product. In the realization
foster_realize builds (Omega = I, A skew, b0 = c0^T) the certificate
is two identities, Gamma_bar = -Gamma^T and Gamma + Gamma^T =
-2 b0 b0^T, so the spectra mirror and Gamma is stable once the load is
minimal; the coupled pair checks just these and the pole margin.

The observable transfers come from the same algebra: their
denominators are det(sI - Gamma), expanded from the poles, and
det(sI - Gamma_bar) = (-1)^n det(-sI - Gamma); their numerators follow
from the matrix-determinant lemma, h adj(sI - Gamma) g =
det(sI - Gamma + g h^T) - det(sI - Gamma), one eigendecomposition per
side. A pole the observable cannot see is cancelled by evaluating the
numerator on it, so no Leverrier expansion and no numerator root
finding is run. scattering_K (from the impedance) and
scattering_K_statespace (a Leverrier resolvent quotient, whose raw
value is -K since the backward drive enters with the opposite
orientation) are kept as coefficient oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ratfun import (SNAP_TOL, Polynomial, RationalFunction,
                     cancel_known_roots, is_inner, is_lossless_pr,
                     spectral_factor)
from .realization import (
    ImproperImpedanceError,
    LosslessRealization,
    StateSpace,
    foster_from_rational,
    foster_realize,
    transfer_function,
)


class InvalidLoadError(ValueError):
    """Load failed its energy certificate when closing the loops."""


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
        res = np.max([mirror_residual(self),
                      np.max(np.abs(g + g.T + half_ggt))])
        scale = max(np.max(np.abs(g)), np.max(np.abs(gb)), np.max(half_ggt))
        if not res <= 1e-12 * scale:
            raise ValueError(f"pair is not lossless: identity residual "
                             f"{res:.3e} at matrix scale {scale:.3e}")
        lam = np.linalg.eigvals(g)
        if not np.all(lam.real < -SNAP_TOL * (1.0 + np.abs(lam))):
            raise ValueError(
                "load is not lossless-minimal: forward matrix not strictly "
                f"stable, max Re eig {np.max(lam.real):.3e}"
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


@dataclass(frozen=True, eq=False)
class Observable:
    """Scalar output y = c xi + d i0 read at the coupling port.

    h and h_bar are the effective state-read rows of the forward and
    backward representations (the port current i0 trades between the
    state and the wave differently in the two)."""

    c: np.ndarray
    d: float
    h: np.ndarray
    h_bar: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float).reshape(-1)
        h = np.array(self.h, dtype=float).reshape(-1)
        hb = np.array(self.h_bar, dtype=float).reshape(-1)
        if not (c.size == h.size == hb.size):
            raise ValueError("observable rows disagree in length")
        if np.max(np.abs(h + hb - 2.0 * c)) > 1e-12 * max(1.0, np.max(np.abs(c))):
            raise ValueError("rows must satisfy h + h_bar = 2c")
        for arr in (c, h, hb):
            arr.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_bar", hb)
        object.__setattr__(self, "d", float(self.d))

    @classmethod
    def build(cls, load: LosslessRealization, c, d):
        """Make the observable rows for a given load's port row c0."""
        c = np.asarray(c, dtype=float).reshape(-1)
        d = float(d)
        if np.all(c == 0.0) and d == 0.0:
            raise TrivialObservableError(
                "observable must read the state or the port current"
            )
        c0 = load.ss.c
        return cls(c, d, c - d * c0, c + d * c0)


def close_loops(load: LosslessRealization) -> CoupledModelPair:
    """Build the forward/backward pair of an Omega = I lossless load.

    Forms Gamma = A - b0 c0 and Gamma_bar = A + b0 c0; the pair's
    constructor is the certificate. A load with another energy metric,
    or one whose pair fails its identities or its pole margin (a
    non-minimal load has a mode on the axis), raises InvalidLoadError.
    """
    if not np.array_equal(load.omega, np.eye(load.dim)):
        raise InvalidLoadError("close_loops needs the Omega = I realization")
    A, b0, c0 = load.ss.A, load.ss.b, load.ss.c
    outer = np.outer(b0, c0)
    try:
        return CoupledModelPair(A - outer, A + outer, 2.0 * b0)
    except ValueError as exc:
        raise InvalidLoadError(str(exc)) from exc


def scattering_K(Z0: RationalFunction, validate=True) -> RationalFunction:
    """Reflection coefficient K = (Z0 - 1)/(Z0 + 1) = (N - D)/(N + D)
    of a lossless load Z0 = N/D.

    With validate=True (the default) Z0 must be a strictly proper
    lossless impedance, which guarantees K inner with K(inf) = -1.
    validate=False applies the Moebius map to arbitrary rational input
    (useful for formula-level checks; no inner guarantee).
    """
    if validate:
        dn = Z0.num.degree
        dd = Z0.den.degree
        if dn is None or dn >= dd:
            raise ValueError("impedance must be strictly proper")
        if not is_lossless_pr(Z0):
            raise ValueError("impedance is not lossless positive-real")
    return RationalFunction(Z0.num - Z0.den, Z0.num + Z0.den)


def scattering_K_statespace(pair: CoupledModelPair,
                            load: LosslessRealization) -> RationalFunction:
    """Scattering function via the two closed-loop resolvents.

    The quotient of the forward and backward port transfers
    c0 (sI - Gamma)^{-1} b0 over c0 (sI - Gamma_bar)^{-1} b0 reduces to
    the reflection coefficient up to overall sign; the sign is fixed
    here to the outgoing-positive convention so the result coincides
    with scattering_K(Z0).
    """
    b0, c0 = load.ss.b, load.ss.c
    fwd = transfer_function(StateSpace(pair.gamma, b0, c0))
    bwd = transfer_function(StateSpace(pair.gamma_bar, b0, c0))
    return -(fwd / bwd)


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
    exact because Gamma_bar = -Gamma^T. The numerators follow from the
    matrix-determinant lemma, h adj(sI - Gamma) g =
    det(sI - Gamma + g h^T) - D(s), one eigendecomposition per side;
    the backward side is computed on its own from Gamma_bar and h_bar.
    A pole is cancelled when the numerator vanishes on it to first
    order (ratfun.cancel_known_roots); no root of a numerator is
    computed.
    """
    if np.all(obs.h == 0.0) and obs.d == 0.0:
        raise TrivialObservableError("transfer pair undefined for y = 0")
    gain = pair.input_gain
    den = pair.K.den
    den_bar = den.reflected().scaled(-1.0 if pair.dim % 2 else 1.0)
    W = _port_transfer(pair.gamma, gain, obs.h, obs.d, den, pair.poles)
    Wb = _port_transfer(pair.gamma_bar, gain, obs.h_bar, obs.d, den_bar,
                        -pair.poles)
    return W, -Wb


def _adjugate_numerator(gamma, gain, h, den):
    """h adj(sI - gamma) gain, given den = det(sI - gamma).

    Matrix-determinant lemma: det(sI - gamma + gain h^T) =
    den(s) (1 + h (sI - gamma)^{-1} gain). The difference is trimmed
    at 1e-13 of its largest coefficient, as a Leverrier numerator is.
    """
    shifted = Polynomial.from_roots(
        np.linalg.eigvals(gamma - np.outer(gain, h)))
    return Polynomial(shifted.coeffs - den.coeffs, rel_tol=1e-13)


def _port_transfer(gamma, gain, h, d, den, poles):
    """(h adj(sI - gamma) gain + 2 d den) / den, reduced over poles
    (the roots of den)."""
    num = _adjugate_numerator(gamma, gain, h, den)
    if d != 0.0:
        num = num + den.scaled(2.0 * d)
    # coprime: every root of den that num vanishes on is deflated
    return RationalFunction(*cancel_known_roots(num, den, poles), reduce=False)


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
    Z = RationalFunction(K.den + K.num, K.den - K.num)
    if Z.is_zero:
        return Z  # short circuit
    if not is_lossless_pr(Z):
        raise ValueError("inverted impedance failed the lossless test")
    return Z


def spectrum_to_bath(Phi: RationalFunction):
    """Synthesize a bath-coupled load whose output spectrum is Phi.

    Chain: spectral factorization, scattering quotient of the factor
    pair, impedance inversion, partial-fraction extraction,
    realization, loop closure. Each stage failure is re-raised as a
    SynthesisStageError naming the stage.

    Returns (load, pair).
    """
    chain = run_synthesis(Phi)
    return chain.load, chain.pair


@dataclass(frozen=True, eq=False)
class SynthesisChain:
    """Intermediate products of spectrum_to_bath, for reporting."""

    spectrum: RationalFunction
    W: RationalFunction
    Wbar: RationalFunction
    K: RationalFunction
    impedance: RationalFunction
    foster: object
    load: LosslessRealization
    pair: CoupledModelPair


def run_synthesis(Phi: RationalFunction) -> SynthesisChain:
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


def match_observable_to_factor(load: LosslessRealization,
                               pair: CoupledModelPair,
                               W_target: RationalFunction) -> Observable:
    """Observable whose forward wave transfer equals a given stable factor.

    The map from the output row c to the numerator of
    2 c (sI - Gamma)^{-1} b0 is linear and, for a minimal load,
    invertible onto polynomials of degree < n; solving it recovers the
    unique state observable (d = 0) whose driven output has spectrum
    W_target(s) W_target(-s). W_target must be strictly proper with
    the forward characteristic polynomial as denominator.
    """
    n = load.dim
    b0 = load.ss.b
    dn = W_target.num.degree
    dd = W_target.den.degree
    if dn is None or dd is None or dn >= dd or dd != n:
        raise ValueError(
            "target factor must be strictly proper with denominator "
            "degree equal to the load dimension"
        )
    if not _dens_match(pair.K.den, W_target.den):
        raise ValueError(
            "target denominator is not the forward characteristic polynomial"
        )
    cols = np.zeros((n, n))
    for i, e in enumerate(np.eye(n)):
        num = _adjugate_numerator(pair.gamma, 2.0 * b0, e, pair.K.den)
        cols[: num.coeffs.size, i] = num.coeffs
    target = np.zeros(n)
    target[: W_target.num.coeffs.size] = W_target.num.coeffs
    c, res, rank, _ = np.linalg.lstsq(cols, target, rcond=None)
    if rank < n:
        raise ValueError("load is not minimal; factor matching is singular")
    obs = Observable.build(load, c, 0.0)
    got, _ = observable_transfers(pair, obs)
    if not got.close_to(W_target, tol=1e-7):
        raise ValueError("factor matching failed to reproduce the target")
    return obs


def _dens_match(p, q, tol=1e-9):
    a, b = p.coeffs, q.coeffs
    if a.size != b.size:
        return False
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    return bool(np.max(np.abs(a - b)) <= tol * scale)


# ---------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------


def mirror_residual(pair: CoupledModelPair) -> float:
    """max |Gamma_bar + Gamma^T|: zero makes eig(Gamma_bar) = -eig(Gamma)."""
    return float(np.max(np.abs(pair.gamma_bar + pair.gamma.T)))


def allpass_residual(K: RationalFunction, n_points=200) -> float:
    """Max deviation of |K(jw)| from 1 on a log grid w in [1e-3, 1e3]."""
    ws = np.logspace(-3.0, 3.0, n_points)
    vals = np.abs(K.evaluate(1j * ws))
    return float(np.max(np.abs(vals - 1.0)))


def coupling_report(pair: CoupledModelPair) -> dict:
    """JSON-ready summary: spectra, K coefficients, residuals."""
    ef = np.sort_complex(pair.poles)
    eb = np.sort_complex(np.linalg.eigvals(pair.gamma_bar))
    return {
        "gamma_eigs": [[z.real, z.imag] for z in ef],
        "gamma_bar_eigs": [[z.real, z.imag] for z in eb],
        "K_num": pair.K.num.coeffs.tolist(),
        "K_den": pair.K.den.coeffs.tolist(),
        "allpass_residual": allpass_residual(pair.K),
        "mirror_residual": mirror_residual(pair),
    }
