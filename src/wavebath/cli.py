"""Experiment runner.

Every module is exposed as one subcommand that reads a flat config
(flags, optionally backed by an INI file), runs deterministically from
its seed, writes plot-ready CSV plus a `summary.json`, and exits 0
only if every declared check passed. `report` folds many run
directories into one table.

Config resolution order: built-in default, then the [command] section
of --config, then explicit flags. Unknown keys in the config file are
an error — a typo must abort before any computation, not silently run
a default.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad usage, config
or input, 3 internal error. `main` alone maps errors to codes: every
refusal is a `ValueError`, or an `OSError` on the output path, and
exits 2 with one stderr line and no `summary.json`; any other
exception prints its traceback and a last line `internal error: ...`,
and exits 3. An experiment removes the `summary.json` of an earlier
run in its output directory before it starts, so no verdict outlives
a run that exits 2 or 3.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import coupling, lattice, statmech, waveline
from .ratfun import (DEGREE_CAP, Polynomial, PoleEvaluationError,
                     RationalFunction)
from .realization import (
    FosterSpec,
    foster_from_realization,
    foster_realize,
    foster_to_rational,
    verify_lossless_certificate,
)


class ConfigError(ValueError):
    """Bad key, bad value, or unusable combination in the run config,
    or a `report` argument that is not a run directory."""


# ---------------------------------------------------------------------
# parameter tables: name -> (type, default, help); None default = required
# ---------------------------------------------------------------------

_SIM_PARAMS = {
    "foster": (str, None, "load description, e.g. 'k0 = 1; tank = 0.5,1'"),
    "dx": (float, 0.01, "grid step (dt = dx)"),
    "x_max": (float, 8.0, "line length"),
    "t_max": (float, 6.0, "run time"),
    "far_end": (str, "open", "far-end condition: open|shorted"),
    "init": (str, "bump", "initial data: bump|noise"),
    "center": (float, 2.0, "bump center"),
    "width": (float, 0.08, "bump width parameter"),
    "sigma": (float, 1.0, "noise amplitude"),
    "window": (str, "", "decay-fit window 't1,t2' (empty: skip)"),
    "guarded": (bool, True, "refuse runs long enough to see far-end returns"),
}

_PARAMS = {
    "synth": {
        "foster": (str, None, "load description, e.g. 'k0 = 1; tank = 0.5,1'"),
    },
    "couple": {
        "foster": (str, None, "load description"),
    },
    "line-sim": dict(_SIM_PARAMS),
    "string-sim": dict(_SIM_PARAMS),
    "lattice-sim": {
        "M": (int, 60, "chain half-width (2M+1 sites)"),
        "c": (float, 1.0, "coupling"),
        "beta": (float, 1.0, "temperature"),
        "dt": (float, 0.05, "sample step"),
        "t_max": (float, 40.0, "run time"),
        "guarded": (bool, True, "enforce the reflection-free window"),
    },
    "autocorr": {
        "M": (int, 400, "chain half-width"),
        "c": (float, 1.0, "coupling"),
        "beta": (float, 1.0, "temperature"),
        "dt": (float, 0.25, "sample step"),
        "t_max": (float, 380.0, "run time"),
        "runs": (int, 160, "ensemble size"),
    },
    "mb-stats": {
        "m": (float, 1.0, "particle mass"),
        "kT": (float, 1.0, "temperature"),
        "k": (float, 1.0, "entropy scale"),
        "n": (int, 100_000, "sample count"),
    },
    "invert": {
        "phi": (str, None, "spectral density 'num ; den' (ascending coeffs)"),
    },
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wavebath",
        description="deterministic experiments on loads, lines and chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in _PARAMS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        for key, (typ, default, helptext) in table.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, dest=key, default=None,
                               action=argparse.BooleanOptionalAction,
                               help=helptext)
            else:
                p.add_argument(flag, dest=key, type=typ, default=None,
                               help=helptext)
        p.add_argument("--seed", type=int, default=None, help="rng seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--id", type=str, default=None,
                       help="criterion id recorded in the summary")
    rep = sub.add_parser("report", help="merge run summaries")
    rep.add_argument("run_dirs", nargs="*", help="directories with summary.json")
    rep.add_argument("--out", type=str, default=None, help="output directory")
    return parser


_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _coerce(command, key, raw):
    typ = int if key == "seed" else _PARAMS[command][key][0]
    try:
        if typ is bool:
            return _BOOL_STRINGS[raw.strip().lower()]
        return typ(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


def _load_config_section(command, path):
    ini = configparser.ConfigParser()
    ini.optionxform = str    # parameter names are case sensitive (M, kT)
    try:
        read = ini.read(path)
        items = ini.items(command) if ini.has_section(command) else []
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for key, raw in items:
        if key != "seed" and key not in _PARAMS[command]:
            raise ConfigError(
                f"unknown key {key!r} in section [{command}] of {path}"
            )
        values[key] = _coerce(command, key, raw)
    extra = [s for s in ini.sections() if s != command]
    if extra:
        raise ConfigError(f"unexpected sections {extra} in {path}")
    return values


def resolve_params(args):
    """Defaults, then config file, then explicit flags; require the rest."""
    command = args.command
    table = _PARAMS[command]
    params = {k: spec[1] for k, spec in table.items()}
    seed = 0
    if args.config:
        fromfile = _load_config_section(command, args.config)
        seed = fromfile.pop("seed", seed)
        params.update(fromfile)
    for key in table:
        flag_value = getattr(args, key)
        if flag_value is not None:
            params[key] = flag_value
    if args.seed is not None:
        seed = args.seed
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ConfigError(f"missing required parameters: {missing}")
    return params, seed


# ---------------------------------------------------------------------
# small render helpers
# ---------------------------------------------------------------------


def _poly_text(p: Polynomial, var="s"):
    if p.is_zero:
        return "0"
    parts = []
    for k, a in enumerate(p.coeffs):
        if a == 0.0:
            continue
        mag = abs(a)
        coeff = "" if (mag == 1.0 and k > 0) else "%.12g" % mag
        power = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        term = coeff + power
        if not parts:
            parts.append(("-" if a < 0 else "") + term)
        else:
            parts.append(("-" if a < 0 else "+") + term)
    return "".join(parts)


def _rat_text(r: RationalFunction):
    num, den = _poly_text(r.num), _poly_text(r.den)
    if "+" in num[1:] or "-" in num[1:]:
        num = f"({num})"
    if "+" in den[1:] or "-" in den[1:]:
        den = f"({den})"
    return f"{num}/{den}"


def _check(value, tol):
    return {"pass": bool(value < tol), "value": float(value), "tol": float(tol)}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _load_from(params):
    spec = FosterSpec.from_text(params["foster"])
    return foster_realize(spec), spec


# ---------------------------------------------------------------------
# command bodies: each returns (checks, result payload, artifacts)
# ---------------------------------------------------------------------


def _run_synth(params, seed, out_dir):
    load, spec = _load_from(params)
    report = verify_lossless_certificate(load)
    back = foster_from_realization(load)
    # printed output only: past the cap the impedance has no coefficients
    Z = foster_to_rational(back) if back.state_dim <= DEGREE_CAP else None
    checks = {
        "certificate_lyapunov": _check(report.lyapunov_residual, 1e-8),
        "certificate_gain": _check(report.gain_residual, 1e-8),
        "foster_round_trip": _check(_foster_distance(back, spec), 1e-9),
    }
    result = {
        "foster": spec.to_text(),
        "impedance": _rat_text(Z) if Z is not None else None,
        "impedance_coeffs": Z.to_text() if Z is not None else None,
        "state_dim": load.dim,
        "controllability_margin": report.controllability_margin,
        "observability_margin": report.observability_margin,
    }
    return checks, result, []


def _foster_distance(a, b):
    """Largest residue or frequency gap; inf when the branches differ."""
    if (a.k0 > 0) != (b.k0 > 0) or len(a.tanks) != len(b.tanks):
        return float("inf")
    dev = abs(a.k0 - b.k0)
    for (k1, w1), (k2, w2) in zip(a.tanks, b.tanks):
        dev = max(dev, abs(k1 - k2), abs(w1 - w2))
    return dev


def _run_couple(params, seed, out_dir):
    load, spec = _load_from(params)
    pair = coupling.close_loops(load)
    info = coupling.coupling_report(pair)
    checks = {
        "mirror_spectrum": _check(info["mirror_residual"], 1e-8),
        "allpass_on_axis": _check(info["allpass_residual"], 1e-8),
    }
    result = {
        "foster": spec.to_text(),
        "gamma_eigs": info["gamma_eigs"],
        "gamma_bar_eigs": info["gamma_bar_eigs"],
        "K": _rat_text(pair.K),
        "K_coeffs": pair.K.to_text(),
    }
    return checks, result, []


def _parse_window(text):
    if not text:
        return None
    try:
        t1, t2 = (float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"window must be 't1,t2', got {text!r}") from None
    return t1, t2


def _run_wave_sim(params, seed, out_dir, convention):
    load, spec = _load_from(params)
    cfg = waveline.LineConfig(
        dx=params["dx"], x_max=params["x_max"], t_max=params["t_max"],
        load=load, far_end=params["far_end"],
        reflection_free=params["guarded"],
    )
    n = cfg.n_cells
    if params["init"] == "bump":
        x = np.arange(n) * cfg.dx
        # a zero or non-finite width or center is refused by init_waves
        with np.errstate(all="ignore"):
            v0 = np.exp(-((x - params["center"]) ** 2) / params["width"])
        field = waveline.init_waves(v0, v0, cfg.dx)
    elif params["init"] == "noise":
        rng = np.random.default_rng(seed)
        field = waveline.gaussian_field(rng, n, cfg.dx, params["sigma"])
    else:
        raise ConfigError(f"unknown init {params['init']!r}")

    boundary = waveline.BoundaryCoupler.from_config(cfg, convention=convention)
    _, trace = waveline.propagate(field, cfg.n_steps, boundary)

    fwd, _ = waveline.reduced_forward(boundary.pair, boundary.obs, trace.w,
                                      np.zeros(load.dim), cfg.dt)
    bwd, _ = waveline.reduced_backward(boundary.pair, boundary.obs,
                                       trace.w_bar, trace.xi[-1], cfg.dt,
                                       convention=convention)
    scale = max(float(np.max(np.abs(trace.xi))), 1e-30)
    checks = {
        "energy_drift_per_time": _check(waveline.energy_drift(trace), 1e-9),
        "forward_reconstruction": _check(
            np.max(np.abs(fwd - trace.xi)) / scale, 1e-6),
        "backward_reconstruction": _check(
            np.max(np.abs(bwd - trace.xi)) / scale, 1e-6),
    }
    result = {
        "foster": spec.to_text(),
        "convention": convention,
        "n_cells": n,
        "n_steps": cfg.n_steps,
    }
    window = _parse_window(params["window"])
    if window is not None:
        expected = float(np.max(boundary.pair.poles.real))
        rate = waveline.decay_rate_probe(trace, window)
        checks["decay_rate"] = _check(abs(rate - expected) / abs(expected), 0.05)
        result["decay_rate"] = rate
        result["decay_rate_expected"] = expected

    path = out_dir / "trace.csv"
    with path.open("w") as fh:
        trace.to_csv(fh)
    return checks, result, [path.name]


def _run_lattice_sim(params, seed, out_dir):
    cfg = lattice.ChainConfig(
        half_width=params["M"], c=params["c"], beta=params["beta"],
        dt=params["dt"], t_max=params["t_max"], seed=seed,
        guarded=params["guarded"],
    )
    if cfg.n_steps < 2:
        # langevin_residual differences p0 over three samples
        raise ConfigError(
            f"t_max = {cfg.t_max} holds one step of dt = {cfg.dt}; the "
            "Langevin order check needs at least two")
    state = lattice.sample_invariant(cfg)
    trace = lattice.integrate(state, cfg)
    h0 = lattice.chain_energy(state, cfg)
    h1 = lattice.chain_energy(
        lattice.evolve_state(state, cfg, cfg.t_grid[-1]), cfg)
    denom = max(abs(h0), 1e-30)

    res_full = lattice.langevin_residual(trace, cfg.c)
    half = dataclasses.replace(cfg, dt=cfg.dt / 2.0)
    res_half = lattice.langevin_residual(lattice.integrate(state, half), cfg.c)
    order = math.log2(res_full / res_half) if res_half > 0 else float("inf")

    checks = {
        "energy_conservation": _check(abs(h1 - h0) / denom, 1e-10),
        # pass means order >= 1.9, expressed as a residual below 0
        "langevin_order": {"pass": bool(order >= 1.9),
                           "value": float(order), "tol": 1.9},
    }
    result = {
        "n_sites": cfg.n_sites,
        "energy": h0,
        "langevin_residual": res_full,
        "langevin_residual_half_dt": res_half,
    }
    path = out_dir / "trace.csv"
    with path.open("w") as fh:
        trace.to_csv(fh)
    return checks, result, [path.name]


def _run_autocorr(params, seed, out_dir):
    cfg = lattice.ChainConfig(
        half_width=params["M"], c=params["c"], beta=params["beta"],
        dt=params["dt"], t_max=params["t_max"], seed=seed,
    )
    if cfg.beta == 0.0:
        raise ConfigError("autocorr needs beta > 0: its checks are "
                          "relative to beta")
    if params["runs"] < 1:
        raise ConfigError(f"runs must be >= 1, got {params['runs']}")
    report = lattice.momentum_autocorr(cfg, params["runs"])
    beta = params["beta"]
    lag0_err = abs(report.empirical[0] - beta) / beta
    max_dev = float(np.max(np.abs(report.empirical - report.oracle))) / beta
    checks = {
        "lag_zero_variance": _check(lag0_err, 0.02),
        "oracle_agreement": _check(max_dev, 0.05),
    }

    # measured spectrum of the incoming wave: reported, never asserted —
    # its whiteness is an idealization the finite chain does not owe us
    trace = lattice.integrate(lattice.sample_invariant(cfg), cfg)
    w_stats = statmech.autocovariance(
        trace.w, max_lag=min(50, trace.w.size // 5), dt=cfg.dt)
    result = {
        "runs": params["runs"],
        "lag_count": report.lags.size,
        "q_drift_final": report.q_drift[-1],
    }
    acorr_path = out_dir / "autocorr.csv"
    with acorr_path.open("w") as fh:
        report.to_csv(fh)
    spec_path = out_dir / "wave_spectrum.csv"
    with spec_path.open("w") as fh:
        w_stats.to_spectrum_csv(fh)
    return checks, result, [acorr_path.name, spec_path.name]


def _run_mb_stats(params, seed, out_dir):
    mb = statmech.MBParams(m=params["m"], kT=params["kT"], k=params["k"])
    n = params["n"]
    if n < 10:
        raise ConfigError("n must be at least 10")
    v = statmech.sample_mb(mb, n, seed)
    ke = float(np.mean(0.5 * mb.m * v * v))
    ks = statmech.ks_chi2_three(v**2 / mb.sigma**2)

    # closed form vs independent quadrature for the divergence
    T0, T1 = mb.kT, 2.0 * mb.kT
    a0, a1 = mb.m / (2 * T0), mb.m / (2 * T1)
    quad_kl = statmech.mb_speed_mean(
        mb, lambda s: 1.5 * math.log(a0 / a1) - (a0 - a1) * s * s)
    closed_kl = statmech.kl_mb(T0, T1)
    neg_quad = statmech.negentropy_mb(mb)
    neg_closed = -mb.k * 1.5 * math.log(2 * math.pi * math.e * mb.kT / mb.m)

    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    kl_min_off = min(statmech.kl_mb(t0, t1)
                     for t0 in grid for t1 in grid if t0 != t1)

    checks = {
        "kinetic_energy": _check(abs(ke - 1.5 * mb.kT) / (1.5 * mb.kT), 0.02),
        "ks_chi2_three": _check(ks, 1.628 / math.sqrt(n)),
        "kl_quadrature_agreement": _check(abs(quad_kl - closed_kl), 1e-6),
        "negentropy_agreement": _check(abs(neg_quad - neg_closed), 1e-8),
        "kl_positive_off_diagonal": {
            "pass": bool(kl_min_off > 0.0),
            "value": float(kl_min_off), "tol": 0.0,
        },
    }
    result = {
        "mean_kinetic_energy": ke,
        "expected_kinetic_energy": 1.5 * mb.kT,
        "ks_statistic": ks,
        "negentropy": neg_quad,
    }
    return checks, result, []


def _run_invert(params, seed, out_dir):
    try:
        Phi = RationalFunction.from_text(params["phi"])
    except ZeroDivisionError as exc:   # a zero denominator
        raise ConfigError(f"bad phi: {exc}") from None
    try:
        chain = coupling.run_synthesis(Phi)
    except coupling.SynthesisStageError as exc:
        return (
            {"synthesis": {"pass": False, "value": float("nan"), "tol": 0.0,
                           "stage": exc.stage, "reason": str(exc)}},
            {"phi": params["phi"]},
            [],
        )
    K_back = coupling.scattering_K(chain.impedance)
    rt = _coeff_distance(K_back, chain.K)
    grid = np.logspace(-2, 2, 101)
    try:
        axis = float(np.max(np.abs(
            np.abs(chain.W.evaluate(1j * grid)) ** 2
            - chain.spectrum.evaluate(1j * grid).real)))
    except PoleEvaluationError:
        axis = float("inf")
    checks = {
        "k_round_trip": _check(rt, 1e-8),
        "axis_spectrum_match": _check(axis, 1e-6),
    }
    result = {
        "phi": params["phi"],
        "W": _rat_text(chain.W),
        "K": _rat_text(chain.K),
        "Z0": _rat_text(chain.impedance),
        "Z0_coeffs": chain.impedance.to_text(),
        "foster": chain.foster.to_text(),
    }
    return checks, result, []


def _coeff_distance(a, b):
    scale = max(a.num.max_abs_coeff(), a.den.max_abs_coeff(),
                b.num.max_abs_coeff(), b.den.max_abs_coeff(), 1e-30)
    if a.num.coeffs.size != b.num.coeffs.size or \
            a.den.coeffs.size != b.den.coeffs.size:
        return float("inf")
    return max(
        float(np.max(np.abs(a.num.coeffs - b.num.coeffs))),
        float(np.max(np.abs(a.den.coeffs - b.den.coeffs))),
    ) / scale


_RUNNERS = {
    "synth": _run_synth,
    "couple": _run_couple,
    "line-sim": lambda p, s, o: _run_wave_sim(p, s, o, "line"),
    "string-sim": lambda p, s, o: _run_wave_sim(p, s, o, "string"),
    "lattice-sim": _run_lattice_sim,
    "autocorr": _run_autocorr,
    "mb-stats": _run_mb_stats,
    "invert": _run_invert,
}


def _run_report(args):
    out_dir = Path(args.out) if args.out else Path(".")
    # a shell glob over the output directory picks up the table itself
    own_table = (out_dir / "report.json").resolve()
    run_dirs = [Path(d) for d in args.run_dirs
                if Path(d).resolve() != own_table]
    if not run_dirs:
        raise ConfigError("no run directories given")
    for d in run_dirs:
        if d.exists() and not d.is_dir():
            raise ConfigError(f"{d} is not a run directory")
    rows = []
    missing = []
    for d in run_dirs:
        path = d / "summary.json"
        if not path.is_file():
            missing.append(str(path))
            continue
        try:
            summary = json.loads(path.read_text())
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            summary = None
        if not isinstance(summary, dict):
            raise ConfigError(f"{path} is not a JSON object")
        rows.append(summary)
    rows.sort(key=lambda s: s.get("id", ""))
    table = {
        "runs": [
            {"id": s.get("id"), "command": s.get("command"),
             "ok": s.get("ok"), "checks": s.get("checks")}
            for s in rows
        ],
        "missing": missing,
        "ok": bool(not missing and all(s.get("ok") for s in rows)),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")
    for s in table["runs"]:
        status = "pass" if s["ok"] else "FAIL"
        print(f"{s['id'] or s['command']:24s} {status}")
    for path in missing:
        print(f"missing summary: {path}", file=sys.stderr)
    return 0 if table["ok"] else 1


def _run_experiment(args):
    out_dir = Path(args.out) if args.out else Path(".")
    (out_dir / "summary.json").unlink(missing_ok=True)
    params, seed = resolve_params(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks, result, artifacts = _RUNNERS[args.command](params, seed, out_dir)
    ok = all(c["pass"] for c in checks.values())
    summary = {
        "id": args.id or args.command,
        "command": args.command,
        "config": {**{k: _jsonable(v) for k, v in params.items()},
                   "seed": seed},
        "checks": _jsonable(checks),
        "result": _jsonable(result),
        "artifacts": artifacts,
        "ok": ok,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if not ok:
        failed = [name for name, c in checks.items() if not c["pass"]]
        print(f"{args.command}: failed checks: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def _one_line(exc):
    return " ".join(str(exc).split())


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = _run_report if args.command == "report" else _run_experiment
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {_one_line(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"{args.command}: internal error: {type(exc).__name__}: "
              f"{_one_line(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
