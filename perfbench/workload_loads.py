"""`loads` workload: rational and state-space algebra over many loads.

Random well-separated Foster loads with 0-6 tanks, the same number of
loads for every state dimension 1-13. For each load: `foster_realize`,
`close_loops`, `coupling_report`, a sweep of random observables
(`observable_transfers` and their quotient against K) and, when the
load has a pole at the origin, `run_synthesis` on its spectrum.
`ratfun`, `realization` and `coupling` do all of the work.

The acceptance gates cover loads of state dimension 8 and below. Above
that, loads fail today for one of three reasons (CEILING_REASONS):
`close_loops` finds the load ill-conditioned, the observable quotient
misses K, or synthesis evaluates at a pole. Those failures are recorded
as the load-size ceiling: they count as failed operations, but only
they leave the run correct.

- Dimensions 11-13 fail most of the time (463 of 600 loads on seeds
  1-40); any of them may fail for a ceiling reason.
- Dimensions 9 and 10 fail rarely (6 of 400 loads on seeds 1-40, at
  most 2 in one pass): a pass may record at most EDGE_MAX_PER_PASS of
  their ceiling failures, so a change that breaks most of them is not
  taken for the ceiling.
- Any failure of a load of dimension 8 or below, or for another
  reason, makes the run incorrect.

Work unit: loads.
"""

import numpy as np

from harness import draw_spec, rat_gap
from wavebath import coupling, ratfun, realization

UNIT = "loads"

SIZES = {
    "full": {"per_dim": 5, "observables": 20},
    "tiny": {"per_dim": 1, "observables": 3},
}
MAX_TANKS = 6
CEILING_REASONS = (
    "scattering routes disagree beyond 1e-8; load is ill-conditioned",
    "evaluation at/near a pole",
    "check observable quotient vs K failed",
)
RECORDED_FROM_DIM = 11
EDGE_DIMS = (9, 10)
EDGE_MAX_PER_PASS = 2
RECORDED = "load-size ceiling: dimension >= 11 is ill-conditioned"
RECORDED_EDGE = "load-size ceiling: rare ill-conditioned load of dimension 9-10"


def build(seed, size):
    rng = np.random.default_rng(seed)
    p = SIZES[size]
    loads = []
    for _ in range(p["per_dim"]):
        for n_tanks in range(MAX_TANKS + 1):
            for with_k0 in ((True,) if n_tanks == 0 else (False, True)):
                spec = draw_spec(rng, realization.FosterSpec, n_tanks,
                                 with_k0)
                n = spec.state_dim
                observables = [(rng.standard_normal(n),
                                float(rng.standard_normal()))
                               for _ in range(p["observables"])]
                gain = float(rng.uniform(0.5, 3.0))
                loads.append((spec, observables, gain))
    return loads


def _constant_numerator_spectrum(spec, gain):
    """Acceptance-10 spectrum: gain^2 / (D+N)(s) (D+N)(-s) of Z = N/D."""
    Z = realization.foster_to_rational(spec)
    DN = Z.den + Z.num
    den = DN * DN.reflected()
    return ratfun.RationalFunction(
        ratfun.Polynomial([gain * gain * np.sign(den.coeffs[0])]), den,
        reduce=False)


def _at_ceiling(op):
    """Whether every reason the operation failed is a ceiling reason."""
    return all(any(known in reason for known in CEILING_REASONS)
               for reason in op.reasons)


def run_pass(loads, ops):
    edge_recorded = 0
    for spec, observables, gain in loads:
        dim = spec.state_dim
        with ops.op(f"load.dim{dim}", work=1) as op:
            load = realization.foster_realize(spec)
            pair = coupling.close_loops(load)
            report = coupling.coupling_report(pair)
            op.check("K inner", ratfun.is_inner(pair.K))
            op.below("mirror residual", report["mirror_residual"], 1e-8)
            op.below("allpass residual", report["allpass_residual"], 1e-8)
            worst = 0.0
            for c, d in observables:
                obs = coupling.Observable.build(load, c, d)
                W, Wbar = coupling.observable_transfers(pair, obs)
                worst = max(worst, rat_gap(W / Wbar, pair.K))
            op.below("observable quotient vs K", worst, 1e-8)
            if spec.k0 > 0:
                chain = coupling.run_synthesis(
                    _constant_numerator_spectrum(spec, gain))
                op.below("synthesis impedance", rat_gap(
                    chain.impedance, realization.foster_to_rational(spec)),
                    1e-7)
                back = coupling.scattering_K(coupling.invert_K_to_Z(chain.K))
                op.below("synthesis round trip", rat_gap(back, chain.K), 1e-8)
        if op.ok or not _at_ceiling(op):
            continue
        if dim >= RECORDED_FROM_DIM:
            op.recorded = RECORDED
        elif dim in EDGE_DIMS and edge_recorded < EDGE_MAX_PER_PASS:
            edge_recorded += 1
            op.recorded = RECORDED_EDGE
