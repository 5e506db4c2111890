"""Operation bookkeeping and input helpers shared by the workloads.

An operation fails when it raises or when one of its checks fails. A
failure is *recorded* when the operation was declared with the reason
it fails today (a baseline failure); it still counts as failed, but it
does not make the run incorrect. Any other failure does.
"""

import time
from contextlib import contextmanager

import numpy as np


class Op:
    """One operation of a pass: its work units, checks and failures."""

    def __init__(self, name, work, recorded):
        self.name = name
        self.work = work
        self.recorded = recorded
        self.reasons = []
        self.seconds = 0.0

    @property
    def ok(self):
        return not self.reasons

    def fail(self, reason):
        self.reasons.append(reason)

    def check(self, label, passed, detail=""):
        if not passed:
            self.fail(f"check {label} failed {detail}".rstrip())

    def below(self, label, value, tol):
        """Acceptance check `value < tol`."""
        self.check(label, value < tol, f"({value:.3e}, need < {tol:g})")

    def at_least(self, label, value, floor):
        """Acceptance check `value >= floor`."""
        self.check(label, value >= floor, f"({value:.6g}, need >= {floor:g})")


class Ops:
    """Collects the operations of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.done = []

    @contextmanager
    def op(self, name, work=0, recorded=None):
        """Run the block as one operation; exceptions become failures.

        When traced, the operation's span is marked failed whenever the
        operation fails, whether it raised or a check failed.

        `recorded` names the baseline failure this operation is known to
        have today, or is None when it is expected to pass.
        """
        op = Op(name, work, recorded)
        if self.tracer:
            self.tracer.open(f"bench.{name}")
        t0 = time.perf_counter()
        try:
            yield op
        except Exception as exc:
            op.fail(f"{type(exc).__name__}: {exc}")
        finally:
            op.seconds = time.perf_counter() - t0
            if self.tracer:
                self.tracer.close(not op.ok)
        self.done.append(op)


def draw_spec(rng, foster_spec, n_tanks, with_k0, min_gap=0.3,
              freq_range=(0.3, 4.0), res_range=(0.2, 2.0)):
    """A random well-separated Foster load with a fixed tank count.

    Same recipe as `wavebath.realization.random_foster`, except that the
    tank count and the pole at the origin are chosen by the caller, so a
    workload can hold its mix of state dimensions fixed across seeds.
    """
    k0 = float(rng.uniform(*res_range)) if with_k0 else 0.0
    lo, hi = freq_range
    freqs = []
    w = lo + float(rng.uniform(0, min_gap))
    for _ in range(n_tanks):
        freqs.append(w)
        w += min_gap + float(rng.uniform(0, (hi - lo) / max(1, n_tanks)))
    tanks = tuple((float(rng.uniform(*res_range)), f) for f in freqs)
    return foster_spec(k0, tanks)


def rat_gap(A, B):
    """Max coefficient difference of two reduced monic-denominator forms."""
    if (A.num.coeffs.size != B.num.coeffs.size
            or A.den.coeffs.size != B.den.coeffs.size):
        return float("inf")
    scale = max(A.num.max_abs_coeff(), A.den.max_abs_coeff(),
                B.num.max_abs_coeff(), B.den.max_abs_coeff(), 1.0)
    return max(
        float(np.max(np.abs(A.num.coeffs - B.num.coeffs))),
        float(np.max(np.abs(A.den.coeffs - B.den.coeffs))),
    ) / scale
