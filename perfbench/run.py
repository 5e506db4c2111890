"""wavebath benchmark: one workload per fresh process, checked outputs.

    python3 perfbench/run.py --workload line|chain|loads|cli|all
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] [--out F]

Run from the root of a wavebath checkout; the package is imported from
its ``src`` directory. For one workload the script

* starts the workload set-up (interpreter start, imports, inputs built
  from --seed) in fresh processes and times each up to the moment the
  first timed call could start: several before the measured process,
  that process itself, and several after it;
* lets the measured process run passes over the inputs for --seconds,
  checking every output against the acceptance tolerances;
* prints every metric with its unit, median, quartiles and sample count, the
  failed operations with their reasons, and as its last line one JSON
  object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
  ``attempted`` and ``failed`` count the operations of the workload's
  list once each, however many passes ran (see worker.py).

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
passes alternate untraced and traced and the metrics are the per-layer
ones (see metrics.py and README.md). ``--workload all`` runs the four
workloads one after another, each in its own processes. --out writes
the full record of the run(s) as JSON.

BLAS threads are pinned to BLAS_THREADS, and the script and every
process it starts to one CPU.
The exit code is 0 when the run finished, whether or not its outputs
were correct, and 2 when it could not run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, per_op_sums, spread  # noqa: E402

WORKLOADS = ("line", "chain", "loads", "cli")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
# Set-up is timed in fresh processes before and after the passes, so
# that its median spans the run's whole stretch of machine time: at
# least SETUP_MIN on each side, more while SETUP_BUDGET_S of the side
# lasts, at most SETUP_MAX on each side.
SETUP_MIN = {"full": 2, "tiny": 1}
SETUP_MAX = 8
SETUP_BUDGET_S = {"full": 2.0, "tiny": 0.0}
RUN_LIMIT_S = 170          # a run must end within 180 s


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU.

    On a shared host the CPUs of one machine can run the same code at
    different speeds; a run that lands on or moves between them spreads
    its timings. The lowest-numbered CPU this process may use is taken.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass                    # not supported here: run unpinned


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


def start_worker(args, setup_only, deadline):
    """Run worker.py; return (seconds until READY, RESULT dict or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), args.workload,
            str(args.seed), str(args.seconds), str(args.trace), args.size]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"{args.workload} worker exited with {code}")
    return ready, result


def time_setup(args, deadline):
    """Set-up seconds of fresh set-up-only processes, one after another."""
    samples = []
    t0 = time.monotonic()
    while len(samples) < SETUP_MAX and (
            len(samples) < SETUP_MIN[args.size]
            or time.monotonic() - t0 < SETUP_BUDGET_S[args.size]):
        samples.append(start_worker(args, True, deadline)[0])
    return samples


def run_one(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = time_setup(args, deadline)
    ready, res = start_worker(args, False, deadline)
    setup += [ready] + time_setup(args, deadline)

    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "environment": res["environment"],
        "correct": attempted >= 1 and res["unrecorded_failures"] == 0,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": res["failures"], "work_unit": res["unit"],
        "passes": res["passes"], "setup_samples": setup,
    }
    if args.trace:
        record["spans_file"] = res["spans_file"]
        record["overhead_passes"] = res["overhead_passes"]
        record["metrics"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit)
                             in res["per_layer"].items()}
        return record

    passes = [p for p in res["passes"] if not p["traced"]]
    best, med, q1, q3 = per_op_sums(passes)
    work = statistics.median(p["work"] for p in passes)
    ok = (attempted - failed) / attempted
    setup_med, setup_q1, setup_q3, n_setup = spread(setup)
    # name -> (value, median, q1, q3, sample count)
    values = {
        "setup_s": (setup_med, setup_med, setup_q1, setup_q3, n_setup),
        "run_s": (best, med, q1, q3, len(passes)),
        "work_per_s": (work / best, work / med, work / q3, work / q1,
                       len(passes)),
        "ok_ratio": (ok, ok, ok, ok, attempted),
        "peak_rss_mb": (res["peak_rss_mb"],) * 4 + (1,),
    }
    record["metrics"] = {}
    for name, unit in END_TO_END:
        value, med, q1, q3, n = values[name]
        record["metrics"][name] = {"value": value, "unit": unit,
                                   "median": med, "q1": q1, "q3": q3,
                                   "samples": n}
    return record


def print_record(rec):
    env = rec["environment"]
    print(f"== {rec['workload']}  seed {rec['seed']}  size {rec['size']}  "
          f"trace {rec['trace']}  passes {len(rec['passes'])}  "
          f"work unit {rec['work_unit']}")
    print(f"   python {env['python']}  numpy {env['numpy']}  scipy "
          f"{env['scipy']}  BLAS {env['blas']}  threads "
          f"{env['blas_threads']}  cpus {env['cpu_count']} (pinned to "
          f"{env['cpu_affinity']})  {env['cpu_model']}")
    for name, m in rec["metrics"].items():
        extra = (f"  [median {m['median']:.6g}, q1 {m['q1']:.6g}, "
                 f"q3 {m['q3']:.6g}, n={m['samples']}]"
                 if "samples" in m else "")
        print(f"   {name:48s} {m['value']:.6g} {m['unit']}{extra}")
    if rec["trace"]:
        n = rec["overhead_passes"]
        print(f"   trace.overhead_s compares {n['traced']} traced with "
              f"{n['untraced']} untraced passes")
    print(f"   {'fail_ratio':48s} {rec['fail_ratio']:.6g} "
          f"({rec['failed']} of {rec['attempted']} operations)")
    for f in rec["failures"]:
        tag = "recorded" if f["recorded"] else "UNRECORDED"
        print(f"   {tag} failure, {f['count']}x in {len(rec['passes'])} "
              f"passes: {f['op']}: {f['reason']}")
    print(f"   correct: {rec['correct']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (SRC / "wavebath" / "__init__.py").is_file():
        print(f"run.py: no wavebath sources under {SRC}; run it from the "
              f"root of a wavebath checkout", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            records.append(run_one(one))
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        print_record(records[-1])
    if args.out:
        args.out.write_text(json.dumps(
            records if args.workload == "all" else records[0], indent=1))

    prefix = args.workload == "all"
    metrics = {(f"{r['workload']}.{k}" if prefix else k):
               {"value": m["value"], "unit": m["unit"]}
               for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
