"""`cli` workload: the README command lines, one process each.

The eight command lines of the README's "Command line" section run
verbatim, in order, each as a fresh ``python -m wavebath.cli`` process
in a scratch directory that is emptied before every pass. Interpreter
start, the package import and the command layer's parsing and file
writing dominate here, which no other workload measures.

The commands carry their own seeds, so the benchmark seed does not
change this workload's inputs. Two commands fail today and are
recorded: `line-sim` exits 2 because its decay window holds fewer than
three samples, and `report` then exits 1 because `runs/line` has no
summary. A failure is recorded only with that exit code and that
message: exit 2 alone is also what a usage error gives.

Work unit: commands.
"""

import glob
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

# Set-up pays for the package import every command pays again.
import wavebath.cli  # noqa: F401

UNIT = "commands"

README_COMMANDS = (
    'couple --foster "k0=1" --out runs/cap',
    'line-sim --foster "k0 = 0.5; tank = 1,2" --window 12,24 --out runs/line',
    'string-sim --foster "k0=1" --init noise --seed 7 --out runs/string',
    'lattice-sim --M 400 --t-max 100 --seed 3 --out runs/chain',
    'autocorr --runs 160 --seed 1 --out runs/ac',
    'mb-stats --kT 1.3 --out runs/mb',
    'invert --phi "1;1 0 -1" --out runs/inv',
    'report runs/* --out runs',
)
TINY_COMMANDS = ("couple", "line-sim", "report")
# command -> (exit code it returns today, text its last stderr line
# holds then, why); any other exit code or message is not recorded
RECORDED = {
    "line-sim": (2, "window contains fewer than three samples",
                 "README window 12,24 holds fewer than three samples"),
    "report": (1, "missing summary: runs/line/summary.json",
               "runs/line has no summary.json"),
}
COMMAND_TIMEOUT_S = 120

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench" / "cli-work"


def build(seed, size):
    commands = [shlex.split(line) for line in README_COMMANDS]
    if size == "tiny":
        commands = [c for c in commands if c[0] in TINY_COMMANDS]
    return commands


def _expand(args, cwd):
    """Expand `*` patterns against cwd, sorted, as the shell would."""
    out = []
    for arg in args:
        if "*" in arg:
            out.extend(sorted(os.path.relpath(p, cwd)
                              for p in glob.glob(str(cwd / arg))))
        else:
            out.append(arg)
    return out


def _check_outputs(op, name, args, cwd):
    out_dir = cwd / args[args.index("--out") + 1]
    if name == "report":
        report = json.loads((out_dir / "report.json").read_text())
        op.check("report ok", report["ok"])
        return
    summary = json.loads((out_dir / "summary.json").read_text())
    failed = [k for k, c in summary["checks"].items() if not c["pass"]]
    op.check("summary checks", summary["ok"] and not failed,
             f"({', '.join(failed)})")


def run_pass(commands, ops):
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    tracer = ops.tracer
    for k, command in enumerate(commands):
        name = command[0]
        recorded = RECORDED.get(name)
        with ops.op(f"cli.{name}", work=1,
                    recorded=recorded and recorded[2]) as op:
            args = _expand(command, WORK)
            spans = WORK / f"spans-{k}.json"
            if tracer is None:
                argv = [sys.executable, "-m", "wavebath.cli", *args]
            else:
                argv = [sys.executable, str(HERE / "tracecli.py"),
                        str(spans), *args]
            proc = subprocess.run(argv, cwd=WORK, capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT_S)
            if tracer is not None and spans.exists():
                tracer.adopt(spans)
            if proc.returncode != 0:
                tail = " ".join(proc.stderr.strip().splitlines()[-1:])
                known = (recorded is not None
                         and proc.returncode == recorded[0]
                         and recorded[1] in tail)
                if not known:
                    op.recorded = None
                op.fail(f"exit {proc.returncode}: {tail}")
            else:
                op.recorded = None
                _check_outputs(op, name, args, WORK)
    shutil.rmtree(WORK, ignore_errors=True)
