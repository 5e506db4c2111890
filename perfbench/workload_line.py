"""`line` workload: line transport with its energy ledger.

Open-ended lines with noise initial data for loads of state dimension
1, 5 and 9, each followed by forward and backward reconstruction, the
ledger check and CSV export; the acceptance-04 bump/decay runs; and a
shorted far end with reflections allowed. The open runs spend their
time in the O(cells) shift of each step; the shorted run is short and
long-lived, so the boundary step dominates it instead.

Work unit: cell-steps (cells x steps of every line run).
"""

import io

import numpy as np

from harness import draw_spec
from wavebath import coupling, realization, waveline

UNIT = "cell-steps"

SIZES = {
    # open cells/steps at dx = 1e-3; shorted cells/steps at dx = 1e-3
    "full": {"open": (20_000, 19_000), "shorted": (200, 100_000)},
    "tiny": {"open": (400, 380), "shorted": (20, 2_000)},
}
DX = 1e-3
OPEN_TANKS = (0, 2, 4)         # with k0: state dimension 1, 5 and 9
SHORTED_TANKS = 2              # with k0: state dimension 5
NOISE_SIGMA = 0.05             # acceptance-05 noise level
BUMP_CASES = (                 # acceptance 04: load, expected decay rate
    ("capacitor", {"k0": 1.0}, -1.0),
    ("tank", {"tanks": ((0.5, 1.0),)}, -0.5),
)


def build(seed, size):
    rng = np.random.default_rng(seed)
    cells, steps = SIZES[size]["open"]
    open_runs = []
    for n_tanks in OPEN_TANKS:
        spec = draw_spec(rng, realization.FosterSpec, n_tanks, True)
        field = waveline.gaussian_field(rng, cells, DX, sigma=NOISE_SIGMA)
        open_runs.append((spec, field))
    s_cells, s_steps = SIZES[size]["shorted"]
    shorted = (draw_spec(rng, realization.FosterSpec, SHORTED_TANKS, True),
               waveline.gaussian_field(rng, s_cells, DX, sigma=NOISE_SIGMA))
    bump_cfg = {"dx": 1e-2, "x_max": 50.0, "t_max": 25.0}
    x = np.arange(int(round(bump_cfg["x_max"] / bump_cfg["dx"]))) \
        * bump_cfg["dx"]
    v0 = np.exp(-((x - 2.0) ** 2) / 0.08)
    bump = waveline.init_waves(v0, v0, bump_cfg["dx"])
    return {"open": open_runs, "open_size": (cells, steps),
            "shorted": shorted, "shorted_size": (s_cells, s_steps),
            "bump": bump, "bump_cfg": bump_cfg}


def run_pass(inputs, ops):
    cells, steps = inputs["open_size"]
    for spec, field in inputs["open"]:
        with ops.op(f"open.dim{spec.state_dim}", work=cells * steps) as op:
            load = realization.foster_realize(spec)
            config = waveline.LineConfig(dx=DX, x_max=cells * DX,
                                         t_max=steps * DX, load=load)
            pair = coupling.close_loops(load)
            obs = coupling.Observable.build(load, load.ss.c, 0.0)
            _, trace = waveline.run_line(config, field, obs=obs)
            fwd, _ = waveline.reduced_forward(pair, obs, trace.w,
                                              np.zeros(load.dim), config.dt)
            bwd, _ = waveline.reduced_backward(pair, obs, trace.w_bar,
                                               trace.xi[-1], config.dt)
            op.below("energy ledger per unit time",
                     waveline.energy_drift(trace), 1e-9)
            op.below("forward reconstruction",
                     float(np.max(np.abs(fwd - trace.xi))), 1e-6)
            op.below("backward reconstruction",
                     float(np.max(np.abs(bwd - trace.xi))), 1e-6)
            buf = io.StringIO()
            trace.to_csv(buf)
            rows = buf.getvalue().count("\n")
            op.check("csv rows", rows == config.n_steps + 2,
                     f"({rows} lines for {config.n_steps} steps)")

    cfg = inputs["bump_cfg"]
    n_bump = int(round(cfg["x_max"] / cfg["dx"]))
    for name, spec_args, expected in BUMP_CASES:
        work = n_bump * int(round(cfg["t_max"] / cfg["dx"]))
        with ops.op(f"bump.{name}", work=work) as op:
            load = realization.foster_realize(
                realization.FosterSpec(**spec_args))
            config = waveline.LineConfig(load=load, **cfg)
            _, trace = waveline.run_line(config, inputs["bump"])
            rate = waveline.decay_rate_probe(trace, (12.0, 24.0))
            op.below("decay rate", abs(rate - expected) / abs(expected),
                     0.05)
            e = trace.energy
            op.below("energy drift",
                     float(np.max(np.abs(e - e[0])) / e[0]), 1e-9)

    s_cells, s_steps = inputs["shorted_size"]
    spec, field = inputs["shorted"]
    with ops.op(f"shorted.dim{spec.state_dim}", work=s_cells * s_steps) as op:
        load = realization.foster_realize(spec)
        config = waveline.LineConfig(dx=DX, x_max=s_cells * DX,
                                     t_max=s_steps * DX, load=load,
                                     far_end="shorted",
                                     reflection_free=False)
        _, trace = waveline.run_line(config, field)
        op.below("energy ledger per unit time",
                 waveline.energy_drift(trace), 1e-9)
