#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on brief (--quick) workflows.

Run from the repository root (about a minute on 4 cores, plus the first
build):

    python3 perfbench/smoke.py

Checks three things and exits 0 only when all hold:
  1. every metric BENCHMARK.json names appears with its unit in the result
     line of an end-to-end run (--trace 0) and a traced run (--trace 1) of
     every workload, as a finite number, and the runs pass their gates;
  2. changing the seed changes the simulated outputs of every workload;
  3. the correctness gate fires on deliberately mismatched pairs: a tcp-1d
     run against another seed's a4-1d outputs (through the command line,
     which must exit 1), and a traced run against another seed's run.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def fail(message):
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_cli(workload, seed, trace):
    """One quick benchmark run; returns (exit code, result line)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} --trace {trace}: no output (exit {done.returncode})\n"
             + done.stderr[-2000:])
    return done.returncode, json.loads(lines[-1])


def check_metrics(workload, trace, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: gate or counts failed: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} --trace {trace}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload}: {name} = {m['value']!r}")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != bench.END_TO_END or per_layer != bench.PER_LAYER:
        fail("BENCHMARK.json and perfbench/run.py name different metrics or units")
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        fail("BENCHMARK.json and perfbench/run.py name different workloads")

    # 1. Every metric, with its unit, on every workload.
    for workload in bench.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result = run_cli(workload, 1, trace)
            if code != 0:
                fail(f"{workload} --trace {trace} exited {code}")
            check_metrics(workload, trace, result, expected)
        print(f"smoke: {workload}: all metrics present with units")

    # 2. The seed reaches the simulated outputs.
    deadline = time.monotonic() + 600
    records = {}
    for workload in bench.WORKLOADS:
        for seed in (1, 2):
            records[workload, seed], _ = bench.run_driver(
                workload, seed, deadline, setups=1, quick=True)
        if bench.outputs(records[workload, 1]) == bench.outputs(records[workload, 2]):
            fail(f"{workload}: seeds 1 and 2 gave identical outputs")
    print("smoke: changing the seed changes every workload's outputs")

    # 3. The gate fires on mismatched pairs, and only on those.
    a4_1, a4_2 = records["a4-1d", 1], records["a4-1d", 2]
    if bench.gate([records["tcp-1d", 1]], reference=bench.outputs(a4_1)):
        fail("gate rejected a matching tcp-1d / a4-1d pair")
    if not bench.gate([records["tcp-1d", 1]], reference=bench.outputs(a4_2)):
        fail("gate passed tcp-1d seed 1 against a4-1d seed 2")
    if not bench.gate([a4_1], traced=dict(a4_2, traced=True)):
        fail("gate passed a traced run that differs from its untraced run")
    poisoned = bench.reference_path(1, True)
    saved = poisoned.read_bytes() if poisoned.is_file() else None
    try:
        bench.save_reference(a4_2, poisoned)
        code, result = run_cli("tcp-1d", 1, 0)
    finally:
        if saved is None:
            poisoned.unlink()
        else:
            poisoned.write_bytes(saved)
    if code != 1 or result["correct"]:
        fail(f"mismatched tcp-1d reference: exit {code}, correct={result['correct']}")
    print("smoke: the correctness gate fires on mismatched pairs")
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
