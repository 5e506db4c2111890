#!/usr/bin/env python3
"""Measure how fast different loads relax once coupled to a long line.

For each load the script launches a compact incoming bump, waits for it
to pass, then fits the log-decay of the boundary state and compares the
slope against the slowest eigenvalue of the closed-loop feedback
matrix. The conservative line plus a lossless load behaves, from the
load's point of view, like a damped system — the fitted rates land on
the eigenvalue prediction to a fraction of a percent.

Usage: python3 scripts/relaxation_sweep.py
"""

import numpy as np

from wavebath.coupling import close_loops
from wavebath.realization import FosterSpec, foster_realize
from wavebath.waveline import LineConfig, decay_rate_probe, init_waves, run_line

LOADS = [
    ("capacitor k0=1", FosterSpec(k0=1.0)),
    ("tank k=0.5 w=1", FosterSpec(tanks=((0.5, 1.0),))),
    ("cap + tank", FosterSpec(k0=0.5, tanks=((1.0, 2.0),))),
    ("cap + two tanks", FosterSpec(k0=1.0, tanks=((0.6, 0.9), (0.8, 2.4)))),
]


def bump(config, center=2.0, width=0.08):
    x = np.arange(config.n_cells) * config.dx
    v = np.exp(-((x - center) ** 2) / width)
    return init_waves(v, v, config.dx)


def main():
    print(f"{'load':<18} {'predicted':>10} {'measured':>10} {'off %':>7} "
          f"{'energy drift':>13}")
    for name, spec in LOADS:
        load = foster_realize(spec)
        pair = close_loops(load)
        predicted = float(np.max(pair.poles.real))
        config = LineConfig(dx=0.01, x_max=30.0, t_max=29.0, load=load)
        _, trace = run_line(config, bump(config))
        measured = decay_rate_probe(trace, (12.0, 28.0))
        drift = float(np.max(np.abs(trace.energy - trace.energy[0]))
                      / trace.energy[0])
        off = 100.0 * abs(measured - predicted) / abs(predicted)
        print(f"{name:<18} {predicted:>10.4f} {measured:>10.4f} "
              f"{off:>6.2f}% {drift:>13.2e}")


if __name__ == "__main__":
    main()
