"""Smoke test of the benchmark itself, at the tiny problem size.

Runs every workload once untraced and once traced and checks that each
metric BENCHMARK.json names is printed on the last line with its unit,
and that the full record gives each end-to-end timing a sample count.
Also checks that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds",
         "0.1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    out = tmp_path / "record.json"
    proc = _run(ROOT, "--workload", workload, "--trace", trace,
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert 0 <= last["failed"] <= last["attempted"]

    declared = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)

    record = json.loads(out.read_text())
    assert record["workload"] == workload
    assert record["environment"]["blas_threads"]
    if trace == "0":
        for m in declared:
            assert record["metrics"][m["name"]]["samples"] >= 1
        assert record["metrics"]["setup_s"]["samples"] >= 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--trace", "0",
                timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
