"""One workload in one fresh process; started by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SIZE [--setup-only]

Imports the workload (and so the wavebath modules it drives), builds
its inputs from SEED, prints ``READY`` and then runs passes over the
inputs until SECONDS have been spent, never starting a pass that the
previous one says would end past that. With TRACE = 1 the passes
alternate untraced and traced, and the run makes at least
TRACE_MIN_PASSES of them while TRACE_LIMIT_S allows: the first,
warming-up pass and then at least two traced and two untraced ones to
compare. The last line of output is ``RESULT`` and a JSON object with
the pass times, the operations and, when traced, the per-layer metrics.

Every pass runs the same list of operations, so the counts are of that
list: each operation is attempted once and has failed when it failed in
any pass. They do not depend on how many passes fit in SECONDS.
"""

import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from harness import Ops
from metrics import per_layer, per_op_sums
from tracing import Tracer

SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
TRACE_MIN_PASSES = 5       # warm-up, then traced / untraced twice
TRACE_LIMIT_S = 120        # no pass beyond the minimum starts past this


def environment():
    """What the run ran on: versions, BLAS build and threads, CPU."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def main(argv):
    workload, seed, seconds, trace, size = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    module = importlib.import_module(f"workload_{workload}")
    inputs = module.build(seed, size)
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    tracer = Tracer() if trace else None
    passes, pass_ops_lists = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_ops = Ops(tracer if traced else None)
        if traced:
            tracer.install()
            tracer.open(f"bench.{workload}.pass")
        t0 = time.perf_counter()
        try:
            module.run_pass(inputs, pass_ops)
        finally:
            if traced:
                tracer.close(not all(op.ok for op in pass_ops.done))
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        passes.append({"traced": traced, "s": elapsed,
                       "work": sum(op.work for op in pass_ops.done if op.ok),
                       "ops": [op.seconds for op in pass_ops.done]})
        pass_ops_lists.append(pass_ops.done)
        spent = time.perf_counter() - start + elapsed
        if trace and len(passes) < TRACE_MIN_PASSES:
            if spent > TRACE_LIMIT_S:
                break
        elif spent > seconds:
            break

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failures = {}
    for op in (op for done in pass_ops_lists for op in done):
        for reason in op.reasons:
            key = (op.name, reason, op.recorded)
            failures[key] = failures.get(key, 0) + 1
    # one tuple per operation of the list: its runs in every pass
    listed = list(zip(*pass_ops_lists))
    result = {
        "unit": module.UNIT,
        "passes": passes,
        "attempted": len(listed),
        "failed": sum(not all(op.ok for op in runs) for runs in listed),
        "unrecorded_failures": sum(any(not op.ok and not op.recorded
                                       for op in runs) for runs in listed),
        "failures": [{"op": name, "reason": reason, "recorded": recorded,
                      "count": count}
                     for (name, reason, recorded), count in failures.items()],
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "environment": environment(),
    }
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{workload}-{seed}.json"
        tracer.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(SPANS_DIR.parent))
        # the same statistic as run_s, traced against untraced passes;
        # the first, untraced pass also pays for warming up: left out
        traced = [p for p in passes if p["traced"]]
        untraced = ([p for p in passes[1:] if not p["traced"]]
                    or passes[:1])
        overhead = per_op_sums(traced)[0] - per_op_sums(untraced)[0]
        result["overhead_passes"] = {"traced": len(traced),
                                     "untraced": len(untraced)}
        result["per_layer"] = per_layer(tracer.spans, len(traced), overhead)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
