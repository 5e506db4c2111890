"""The exit-code contract of the command line, as a property.

For any argument values, every subcommand run through `main` exits 0,
1 or 2; it writes a `summary.json` that parses as strict JSON exactly
when it exits 0 or 1; and it exits 1 exactly when some check in that
summary is false. Exit 3 (an internal error) fails the property with
its traceback.

Every size is bounded so that no example allocates more than a few
MB: chains of half-width M <= 30 with at most 3 runs, at most 500
Maxwell-Boltzmann samples, sample steps dt >= 0.05 when finite, lines
of length 2, and densities of degree <= 6. The drawn numbers come from
small ranges plus the values below, which the refusals must catch.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavebath.cli import main

SPECIAL = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 1e300]


def number(lo, hi):
    """A float from [lo, hi], or one time in eight one of SPECIAL."""
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(SPECIAL) if k == 0 else st.floats(lo, hi))


def integer(hi):
    return st.integers(-1, hi)


def foster_text():
    tank = st.tuples(number(0.1, 3.0), number(0.1, 3.0)).map(
        lambda t: f"tank = {t[0]!r},{t[1]!r}")
    k0 = st.one_of(st.just([]), number(0.1, 3.0).map(lambda k: [f"k0 = {k!r}"]))
    built = st.tuples(k0, st.lists(tank, max_size=2)).map(
        lambda parts: "; ".join(parts[0] + parts[1]))
    return st.one_of(built, built, built, st.text(max_size=20))


def _even_product(roots):
    """Ascending coefficients of prod (a^2 - s^2) over the roots a."""
    coeffs = [1.0]
    for a in roots:
        times_s2 = [0.0, 0.0] + coeffs
        coeffs = [a * a * x - y
                  for x, y in zip(coeffs + [0.0, 0.0], times_s2)]
    return coeffs


def phi_text():
    text = st.lists(number(-3.0, 3.0), min_size=1, max_size=7).map(
        lambda c: " ".join(map(repr, c)))
    # a density c / prod (a^2 - s^2), positive on the axis
    density = st.tuples(number(0.1, 3.0),
                        st.lists(number(0.2, 3.0), min_size=1, max_size=3))
    return st.one_of(
        st.tuples(text, text).map(" ; ".join),
        density.map(lambda d: f"{d[0]!r} ; "
                    + " ".join(map(repr, _even_product(d[1])))),
        st.text(max_size=20))


def window_text():
    pair = st.tuples(number(0.05, 4.0), number(0.05, 4.0)).map(
        lambda t: f"{t[0]!r},{t[1]!r}")
    return st.one_of(st.just(""), pair, st.text(max_size=8))


# per command: key -> strategy for its value; a key may be left out
_SIM = {
    "foster": foster_text(),
    "dx": st.sampled_from([0.01, 0.02, 0.05]),
    "t_max": number(0.05, 10.0),
    "far_end": st.sampled_from(["open", "shorted", "closed"]),
    "init": st.sampled_from(["bump", "noise", "sawtooth"]),
    "center": number(0.0, 2.0),
    "width": number(0.01, 1.0),
    "sigma": number(0.1, 3.0),
    "window": window_text(),
    "guarded": st.booleans(),
}
_CHAIN = {
    "M": integer(30),
    "c": number(0.5, 3.0),
    "beta": number(0.1, 3.0),
    "dt": number(0.05, 2.0),
    "t_max": number(0.05, 10.0),
}
STRATEGIES = {
    "synth": {"foster": foster_text()},
    "couple": {"foster": foster_text()},
    "line-sim": _SIM,
    "string-sim": _SIM,
    "lattice-sim": {**_CHAIN, "guarded": st.booleans()},
    "autocorr": {**_CHAIN, "runs": integer(3)},
    "mb-stats": {"m": number(0.1, 3.0), "kT": number(0.1, 3.0),
                 "k": number(0.1, 3.0), "n": integer(500)},
    "invert": {"phi": phi_text()},
}
# fixed so that no line run exceeds 200 cells
FIXED = {"line-sim": {"x_max": 2.0}, "string-sim": {"x_max": 2.0}}


REQUIRED = {"foster", "phi"}


def flag(key, value):
    """`--key=value`, so that a negative value reaches the parser."""
    name = key.replace("_", "-")
    if isinstance(value, bool):
        return f"--{name}" if value else f"--no-{name}"
    return f"--{name}={value}"


def config_text(command):
    """INI bytes: one [section] with one key, or arbitrary bytes."""
    table = STRATEGIES[command]
    key = st.sampled_from(sorted(table) + ["seed", "fooster"])
    value = key.flatmap(lambda k: st.one_of(
        table[k].map(str) if k in table else st.integers(-1, 9).map(str),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)))
    section = st.tuples(st.sampled_from([command, "other"]), key, value).map(
        lambda t: f"[{t[0]}]\n{t[1]} = {t[2]}\n".encode())
    return st.one_of(section, st.binary(max_size=30))


@st.composite
def command_lines(draw):
    """(argv, INI bytes or None) for one subcommand."""
    command = draw(st.sampled_from(sorted(STRATEGIES)))
    argv = [command]
    for key, values in STRATEGIES[command].items():
        if key in REQUIRED or draw(st.booleans()):
            argv.append(flag(key, draw(values)))
    argv += [flag(k, v) for k, v in FIXED.get(command, {}).items()]
    if draw(st.booleans()):
        argv.append(flag("seed", draw(st.integers(-1, 100))))
    config = draw(st.one_of(st.none(), st.none(), config_text(command)))
    return argv, config


def run(argv, config=None):
    """Exit code, stderr and the parsed summary (or None) of one run."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        if config is not None:
            ini = Path(tmp) / "run.ini"
            ini.write_bytes(config)
            argv = [*argv, f"--config={ini}"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main([*argv, f"--out={out}"])
            except SystemExit as exc:     # argparse refusals
                code = exc.code
        path = out / "summary.json"
        summary = (json.loads(path.read_text(), parse_constant=_not_json)
                   if path.exists() else None)
    return code, err.getvalue(), summary


def _not_json(name):
    """Refuse NaN, Infinity and -Infinity, which strict JSON has not."""
    raise ValueError(f"summary.json holds {name}")


@settings(max_examples=1500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_exit_code_contract(line):
    code, err, summary = run(*line)
    assert code in (0, 1, 2), err
    assert (summary is not None) == (code in (0, 1)), err
    if summary is not None:
        failed = [name for name, c in summary["checks"].items()
                  if not c["pass"]]
        assert (code == 1) == bool(failed), err
        assert summary["ok"] == (code == 0)
