"""Run the benchmark over several seeds and write a baseline record.

    python3 perfbench/record.py [--seeds 1-10] [--out FILE]

Every workload run.py knows is run once per seed, those BENCHMARK.json
lists first and then `line`, each run one run.py process of
BENCHMARK.json's `run_seconds`, as the benchmark is run elsewhere. For
every end-to-end metric the record keeps the values, their median and
quartiles, and the spread (q3 - q1) / median next to the metric's
bound. One traced run per workload, with the first seed,
adds the per-layer metrics. The table printed at the end flags every
spread above a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        out = Path(tmp) / "record.json"
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--out", str(out)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    record = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    listed = [w["name"] for w in bench["workloads"]]
    for workload in listed + [w for w in WORKLOADS if w not in listed]:
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        record["environment"] = runs[0]["environment"]
        entry = {
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted",
                                        "failed", "failures")}
                     | {"passes": len(r["passes"])} for r in runs],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": bound, "values": values,
            }
        traced = run(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {
            "seed": args.seeds[0], "spans_file": traced["spans_file"],
            "overhead_passes": traced["overhead_passes"],
            "metrics": traced["metrics"]}
        record["workloads"][workload] = entry
        for name, m in entry["end_to_end"].items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  <-- WIDE"
            print(f"{workload:6s} {name:12s} median {m['median']:.6g} "
                  f"{m['unit']}  spread {m['spread']:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        print(f"{workload:6s} correct in {sum(r['correct'] for r in runs)}"
              f"/{len(runs)} runs", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
