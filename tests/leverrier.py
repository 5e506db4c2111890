"""Coefficient oracles for the tests: transfers by the Leverrier iteration.

The library never expands a resolvent this way; it reads transfers off
eigenvalues (synth's Foster data, the Blaschke K) and off a Hessenberg
reduction (the observable transfers). These functions compute the same
objects by an independent route, one pass of matrix products with no
eigensolver, so the tests can compare the two. The float iteration
loses accuracy as the dimension grows, so the tests compare against it
on small loads.

match_observable_to_factor inverts the observable transfer map: no
command reaches it, and the tests use it to check a synthesized load
against its spectrum.
"""

import numpy as np

from wavebath.coupling import Observable, observable_transfers
from wavebath.ratfun import Polynomial, RationalFunction
from wavebath.realization import StateSpace


def transfer_function(ss):
    """Resolve c (sI - A)^{-1} b + d as a reduced rational function.

    Leverrier: the characteristic polynomial and the adjugate expansion
    come out of one pass of matrix products, so no symbolic work and no
    per-frequency solves are needed.
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


def scattering_K_statespace(pair, load):
    """Scattering function via the two closed-loop resolvents.

    The quotient of the forward and backward port transfers
    c0 (sI - Gamma)^{-1} b0 over c0 (sI - Gamma_bar)^{-1} b0 reduces to
    the reflection coefficient up to overall sign: its raw value is -K,
    since the backward drive enters with the opposite orientation. The
    sign is fixed here to the outgoing-positive convention, so the
    result coincides with coupling.scattering_K(Z0) and pair.K.
    """
    b0, c0 = load.ss.b, load.ss.c
    fwd = transfer_function(StateSpace(pair.gamma, b0, c0))
    bwd = transfer_function(StateSpace(pair.gamma_bar, b0, c0))
    return -(fwd / bwd)


def match_observable_to_factor(load, pair, W_target):
    """Observable whose forward wave transfer equals a given stable factor.

    The map from the output row c to the numerator of
    2 c (sI - Gamma)^{-1} b0 is linear and, for a minimal load,
    invertible onto polynomials of degree < n; solving it recovers the
    unique state observable (d = 0) whose driven output has spectrum
    W_target(s) W_target(-s). W_target must be strictly proper with
    the forward characteristic polynomial as denominator.
    """
    n = load.dim
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
    # column i: the coefficients of e_i adj(sI - Gamma) g, degree < n
    cols = pair.transfer_bases[0].rows[:n, :n].T
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
