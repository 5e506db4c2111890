"""Semi-infinite lossless line truncated at x_max, load at x = 0.

With wave speed normalized to 1 the d'Alembert split v = a' + b',
i = a' - b' turns the interior PDE into two translations: the a'
profile moves toward the load (incoming), the b' profile moves away
(outgoing). On a grid with dt = dx both translations are exact index
shifts, so the only numerical work is the load ODE at the boundary,

    xi' = Gamma xi + 2 b0 w,   w(t) = a'(t),

advanced one trapezoidal (midpoint) step per dt. That scheme is not a
convenience: writing the produced outgoing sample as

    e_m = c0 xi_mid - w_m,     xi_mid = (xi_m + xi_{m+1})/2,

the load-energy increment obeys the exact discrete identity
dE = dt (w_m^2 - e_m^2) via the load's certificate (A + A^T = 0,
b0 = c0^T, d = 0; load energy |xi|^2 / 2), so total energy (line sum
+ load quadratic + radiated) is conserved to roundoff, with no O(dx)
bookkeeping residue.

Because the shifts are exact, the line is a pair of delay lines, as
in digital-waveguide models (J. O. Smith, Physical Audio Signal
Processing). On a line of n cells the load first sees the initial
incoming tape (n steps), then the initial outgoing tape reflected at
the far end, then its own emitted cells 2n steps late; the far end
reflects with rho = 0 (open) or rho = -1 (shorted). Every input of a
block of 2n steps is therefore known before the block starts, so the
simulation steps the load with the same Cayley recurrence as the
reduced models, one block at a time, and rebuilds the tapes, the
radiated tally and the energy column from the sample series. A run
costs O(steps + cells) rather than O(steps * cells).

Wave sign conventions: the line trace stores the outgoing series as
wbar = w - v0 (the transmission-line orientation); the string
scenario flips the outgoing sign (wbar_string = v0 - w) and drives
the backward model with the opposite sign. One engine, one switch.

The wbar samples are midpoint (cell) values, offset half a step from
the t grid; that is exactly what the backward reduced model needs to
reproduce the forward trajectory to machine precision. The final
trace row, which no step produced, stores the point value w - c0 xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ._csv import write_csv
from ._errors import ReflectionWindowError
from .coupling import CoupledModelPair, Observable, close_loops
from .realization import LosslessRealization


# Largest line run, in entries 2 (steps + cells) + (steps + 1) n of
# propagate's arrays: the incoming and outgoing tapes w and d, and the
# states of a load of dimension n. line-sim, which also runs both reduced
# models and writes the trace, peaks at 30-36 bytes per entry
# (tracemalloc, load dimensions 1 and 9), so about 180 MB at the limit.
# The README's line-sim (2600 cells, 2500 steps) and the line benchmark's
# longest run (200 cells, 1e5 steps at dimension 5: 7e5 entries) pass.
MAX_LINE_ENTRIES = 5_000_000


class ContaminatedWindowError(ValueError):
    """Decay-probe window still contains incoming-wave energy."""


class DegenerateProbeError(ValueError):
    """Decay probe asked to fit a slope on an identically zero state."""


@dataclass(frozen=True)
class LineConfig:
    """Grid and run geometry for one line simulation.

    Stepping is Courant-exact (dt = dx, wave speed 1). x_max must be
    an integer number of cells. In reflection-free mode t_max is
    limited to the window 2 x_max before truncation artifacts can
    reach the load. A run past MAX_LINE_ENTRIES is refused before any
    allocation.
    """

    dx: float
    x_max: float
    t_max: float
    load: LosslessRealization
    far_end: str = "open"
    reflection_free: bool = True

    def __post_init__(self):
        if not (self.dx > 0 and np.isfinite(self.dx)):
            raise ValueError(f"dx must be positive, got {self.dx}")
        if not (np.isfinite(self.x_max) and np.isfinite(self.t_max)):
            raise ValueError(
                f"x_max and t_max must be finite, got {self.x_max}, {self.t_max}"
            )
        cells = self.x_max / self.dx
        steps = self.t_max / self.dx
        entries = 2.0 * (steps + cells) + (steps + 1.0) * self.load.dim
        # written to refuse nan too, from -inf cells plus inf steps
        if not entries <= MAX_LINE_ENTRIES:
            raise ValueError(
                f"dx = {self.dx} over x_max = {self.x_max} and t_max = "
                f"{self.t_max} is a line of {cells:.4g} cells and "
                f"{steps:.4g} steps, {entries:.4g} entries with a load of "
                f"dimension {self.load.dim}; at most {MAX_LINE_ENTRIES} "
                "are allowed")
        if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
            raise ValueError("x_max must be an integer multiple of dx")
        if round(cells) < 2:
            raise ValueError("line needs at least two cells")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.far_end not in ("open", "shorted"):
            raise ValueError(f"far_end must be open|shorted, got {self.far_end!r}")
        if self.reflection_free and self.t_max >= 2.0 * self.x_max:
            raise ValueError(
                f"reflection-free run needs t_max < 2 x_max = {2 * self.x_max}"
            )

    @property
    def dt(self):
        return self.dx

    @property
    def n_cells(self):
        return int(round(self.x_max / self.dx))

    @property
    def n_steps(self):
        return int(round(self.t_max / self.dt))


@dataclass
class WaveField:
    """Left- and right-moving wave profiles on the grid.

    a_prime[j] is the incoming profile at x_j (moves toward x = 0),
    b_prime[j] the outgoing one; the port variables are v = a' + b' and
    i = a' - b', and the line energy is dx sum(a'^2 + b'^2), the term
    propagate's energy column starts from. radiated accumulates energy
    that has left through an open far end.
    """

    a_prime: np.ndarray
    b_prime: np.ndarray
    dx: float
    radiated: float = 0.0

    def __post_init__(self):
        self.a_prime = np.asarray(self.a_prime, dtype=float).copy()
        self.b_prime = np.asarray(self.b_prime, dtype=float).copy()
        if self.a_prime.shape != self.b_prime.shape or self.a_prime.ndim != 1:
            raise ValueError("wave profiles must be equal-length 1-d arrays")


def init_waves(v0, i0, dx) -> WaveField:
    """Split port-variable initial data into travelling profiles."""
    v0 = np.asarray(v0, dtype=float)
    i0 = np.asarray(i0, dtype=float)
    if v0.shape != i0.shape or v0.ndim != 1:
        raise ValueError("v0 and i0 must be equal-length 1-d sequences")
    if not (np.all(np.isfinite(v0)) and np.all(np.isfinite(i0))):
        raise ValueError("initial data must be finite")
    return WaveField(0.5 * (v0 + i0), 0.5 * (v0 - i0), dx)


def gaussian_field(rng, n_cells, dx, sigma=1.0) -> WaveField:
    """White-noise-like initial data: v, i i.i.d. N(0, sigma^2/dx).

    The 1/dx variance scaling keeps the wave spectrum flat with
    grid-independent level up to the grid cutoff.
    """
    scale = sigma / np.sqrt(dx)
    v0 = scale * rng.standard_normal(n_cells)
    i0 = scale * rng.standard_normal(n_cells)
    return init_waves(v0, i0, dx)


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    """Time series recorded at the coupling point.

    xi has one row per sample; w[m] = a'(t_m); wbar holds midpoint
    (cell) outgoing samples as described in the module docstring;
    energy is the conserved total (line + load + radiated).
    """

    t_grid: np.ndarray
    xi: np.ndarray
    y: np.ndarray
    w: np.ndarray
    w_bar: np.ndarray
    energy: np.ndarray
    convention: str = "line"

    def to_csv(self, fh):
        """Fixed-order CSV: t,xi_1..xi_n,y,w,wbar (17 significant digits)."""
        n = self.xi.shape[1]
        header = "t," + ",".join(f"xi_{k + 1}" for k in range(n)) + ",y,w,wbar"
        write_csv(fh, header,
                  (self.t_grid, self.xi, self.y, self.w, self.w_bar))


@dataclass(frozen=True, eq=False)
class BoundaryCoupler:
    """Precomputed boundary step for one load at one step size.

    Holds the Cayley (trapezoidal) update matrices of the forward
    feedback matrix and the observable used for the y column.
    """

    load: LosslessRealization
    pair: CoupledModelPair
    obs: Observable
    dt: float
    far_end: str = "open"
    reflection_free: bool = True
    convention: str = "line"
    step_matrix: np.ndarray = dc_field(init=False, repr=False)
    input_matrix: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        if self.convention not in ("line", "string"):
            raise ValueError(f"unknown convention {self.convention!r}")
        S, g = _cayley(self.pair.gamma, self.pair.input_gain, self.dt)
        object.__setattr__(self, "step_matrix", S)
        object.__setattr__(self, "input_matrix", g)

    @classmethod
    def from_config(cls, config: LineConfig, obs=None, convention="line"):
        pair = close_loops(config.load)
        if obs is None:
            obs = Observable.build(config.load, config.load.ss.c, 0.0)
        return cls(config.load, pair, obs, config.dt,
                   config.far_end, config.reflection_free, convention)


def _cayley(G, gain, h):
    """Trapezoidal update: xi+ = S xi + g u with S the Cayley map of G."""
    n = G.shape[0]
    M = np.eye(n) - 0.5 * h * G
    S = np.linalg.solve(M, np.eye(n) + 0.5 * h * G)
    g = np.linalg.solve(M, h * gain)
    return S, g


def _cayley_steps(S, g, u, x0):
    """Trapezoidal steps x[m+1] = S x[m] + g u[m] over a known input u.

    Returns the len(u) + 1 states, x0 first. This is the module's only
    per-step loop: the line simulation and both reduced models run it.
    """
    x = np.empty((len(u) + 1, S.shape[0]))
    x[0] = x0
    for m, u_m in enumerate(u.tolist()):
        x[m + 1] = S @ x[m] + g * u_m
    return x


def propagate(field: WaveField, steps: int, boundary: BoundaryCoupler,
              xi0=None):
    """Run the coupled system for the given number of steps.

    Returns (final field, boundary trace). The input field is not
    modified.

    The line is a pair of delay lines. With n cells, w[k] is the
    incoming sample the load sees at step k and d[k] the outgoing
    sample that reaches the far end during step k; after m steps the
    tapes read a'[j] = w[m + j] and b'[j] = d[m + n - 1 - j]. So
    d = (b'_0 reversed, e), with e the cells the load emits, and
    w = (a'_0, rho d) with rho = 0 for an open far end and -1 for a
    shorted one. An emitted cell comes back to the load 2n steps
    later, so every input of a block of 2n steps is known before the
    block starts: the load is stepped one block at a time (a guarded
    run is a single block), and the tapes, the radiated tally and the
    energy column follow from the samples by index arithmetic and one
    cumulative sum.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    a0, b0, dx = field.a_prime, field.b_prime, field.dx
    n = a0.size
    if n == 0:
        raise ValueError("line needs at least one cell")

    load, obs = boundary.load, boundary.obs
    S, g = boundary.step_matrix, boundary.input_matrix
    c0 = load.ss.c
    h = boundary.dt
    sign = 1.0 if boundary.convention == "line" else -1.0
    shorted = boundary.far_end == "shorted"
    guarded = shorted and boundary.reflection_free

    w = np.zeros(steps + n)
    w[:n] = a0
    d = np.empty(steps + n)
    d[:n] = b0[::-1]
    xis = np.empty((steps + 1, load.dim))
    xis[0] = 0.0 if xi0 is None else xi0
    for k0 in range(0, steps, 2 * n):
        k1 = min(k0 + 2 * n, steps)
        if shorted:  # v(x_max) = 0 reflects with a sign flip
            lo = max(k0, n)
            w[lo:k1] = -d[lo - n:k1 - n]
        xis[k0:k1 + 1] = _cayley_steps(S, g, w[k0:k1], xis[k0])
        xi_mid = 0.5 * (xis[k0:k1] + xis[k0 + 1:k1 + 1])
        d[n + k0:n + k1] = xi_mid @ c0 - w[k0:k1]
        if guarded:
            hit = np.flatnonzero(d[k0:k1])
            if hit.size:
                m = k0 + int(hit[0])
                raise ReflectionWindowError(
                    f"reflection would re-enter at step {m + 1} "
                    f"(t = {(m + 1) * h:.6g})"
                )
    if shorted:  # the last incoming sample and the final a' tape
        w[n:] = -d[:steps]
    e = d[n:]

    radiated = field.radiated
    if not shorted:
        departing = d[:steps]
        radiated += dx * (departing @ departing)
    out = WaveField(w[steps:], d[steps:][::-1], dx, radiated)

    ws = w[:steps + 1]
    wbars = np.empty(steps + 1)
    wbars[:steps] = -sign * e
    # final row: no produced cell, store the point value
    wbars[steps] = sign * (ws[steps] - c0 @ xis[steps])
    ys = xis @ obs.h + 2.0 * obs.d * ws
    flux = np.zeros(steps + 1)
    np.cumsum(e * e - ws[:steps] * ws[:steps], out=flux[1:])
    energies = (dx * (a0 @ a0 + b0 @ b0 + flux)
                + 0.5 * np.einsum("mi,mi->m", xis, xis)
                + field.radiated)
    trace = BoundaryTrace(np.arange(steps + 1) * h, xis, ys, ws, wbars,
                          energies, boundary.convention)
    return out, trace


def run_line(config: LineConfig, field: WaveField, obs=None,
             convention="line", xi0=None):
    """Convenience wrapper: build the coupler and run t_max worth of steps."""
    if field.a_prime.size != config.n_cells:
        raise ValueError(
            f"field has {field.a_prime.size} cells, config wants {config.n_cells}"
        )
    boundary = BoundaryCoupler.from_config(config, obs=obs, convention=convention)
    return propagate(field, config.n_steps, boundary, xi0=xi0)


# ---------------------------------------------------------------------
# reduced models
# ---------------------------------------------------------------------


def reduced_forward(pair: CoupledModelPair, obs: Observable, w, xi0, dt):
    """Integrate the stable reduced model xi' = Gamma xi + 2 b0 w.

    Uses the same trapezoidal step as the full simulation, so fed the w
    series extracted from a run it reproduces the full xi trajectory
    bit for bit: once the incoming samples are known, the line adds
    nothing to the boundary dynamics. Returns (xi, y) sampled on the
    same grid as w, with y = h xi + 2 d w.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("w must be a nonempty 1-d series")
    steps = w.size - 1
    S, g = _cayley(pair.gamma, pair.input_gain, dt)
    xis = _cayley_steps(S, g, w[:steps], xi0)
    ys = xis @ obs.h + 2.0 * obs.d * w
    return xis, ys


def reduced_backward(pair: CoupledModelPair, obs: Observable, w_bar, xiT,
                     dt, convention="line"):
    """Recover the trajectory from the outgoing record, running backward.

    The forward step rewritten against the anticausal feedback matrix
    reads xi+ = xi + dt Gb xi_mid + 2 dt b0 wbar_cell, so knowing the
    final state and the emitted cells determines every earlier state:
    solved for xi, it is the Cayley step of Gb with step -dt, and
    integrating Gb in reverse time is the stable direction. w_bar must
    hold cell (midpoint) samples, i.e. the trace column as recorded;
    entry [steps] is never read. The string convention flips the drive
    sign. Returns (xi, y) with y = hbar xi + 2 d w_bar.
    """
    if convention not in ("line", "string"):
        raise ValueError(f"unknown convention {convention!r}")
    w_bar = np.asarray(w_bar, dtype=float)
    if w_bar.ndim != 1 or w_bar.size == 0:
        raise ValueError("w_bar must be a nonempty 1-d series")
    steps = w_bar.size - 1
    sign = 1.0 if convention == "line" else -1.0
    S, g = _cayley(pair.gamma_bar, pair.input_gain, -dt)
    # run in reverse time, then return the states in time order; the
    # contiguous copy keeps y's matrix product in the forward layout
    xis = np.ascontiguousarray(
        _cayley_steps(S, sign * g, w_bar[:steps][::-1], xiT)[::-1])
    ys = xis @ obs.h_bar + 2.0 * obs.d * w_bar
    return xis, ys


# ---------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------


def decay_rate_probe(trace: BoundaryTrace, window):
    """Least-squares slope of log ||xi|| over a quiet time window.

    After the incoming wave has passed, the load state relaxes at the
    slowest rate of the stable feedback matrix; the fitted slope
    estimates it. Raises ContaminatedWindowError if incoming samples in
    the window are not negligible against the run's peak (the fit would
    measure forcing, not relaxation), and DegenerateProbeError when
    there is no state to fit.
    """
    t1, t2 = window
    if not t2 > t1:
        raise ValueError("window must satisfy t1 < t2")
    mask = (trace.t_grid >= t1) & (trace.t_grid <= t2)
    if np.count_nonzero(mask) < 3:
        raise ValueError("window contains fewer than three samples")
    w_peak = float(np.max(np.abs(trace.w))) if trace.w.size else 0.0
    w_win = float(np.max(np.abs(trace.w[mask])))
    if w_win > 1e-9 * max(w_peak, 1e-300):
        raise ContaminatedWindowError(
            f"incoming wave still active in window: max |w| = {w_win:.3g} "
            f"(run peak {w_peak:.3g})"
        )
    norms = np.linalg.norm(trace.xi[mask], axis=1)
    if not np.all(norms > 0.0):
        raise DegenerateProbeError("state norm vanishes inside the window")
    slope = np.polyfit(trace.t_grid[mask], np.log(norms), 1)[0]
    return float(slope)


def energy_drift(trace: BoundaryTrace):
    """Worst relative energy deviation per unit time over the run."""
    e = trace.energy
    e0 = e[0]
    if e0 <= 0.0:
        return 0.0
    span = trace.t_grid[-1] - trace.t_grid[0]
    if span <= 0.0:
        return 0.0
    return float(np.max(np.abs(e - e0)) / (e0 * span))
