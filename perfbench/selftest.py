#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at --scale small (every phase, a fraction of the
size) end to end and traced, and checks that each run exits 0, reports
correct with nothing failed, and prints exactly the metrics
BENCHMARK.json declares, with their units, as finite numbers. Then checks
that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def check_run(spec, workload, trace, failures):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "4",
                "--trace", str(trace), "--scale", "small"])
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        failures.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        failures.append(f"{label}: attempted={result['attempted']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        failures.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} = {value!r}")
        if name in want and metric.get("unit") != want[name]:
            failures.append(f"{label}: {name} unit {metric.get('unit')!r}, "
                            f"declared {want[name]!r}")
    print(f"ok   {label}: attempted {result['attempted']}", flush=True)


def check_refuses_without_sources(failures):
    bare = ROOT / ".bench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench")
    try:
        proc = run(["--workload", "publish_query", "--seed", "1",
                    "--seconds", "1"], cwd=bare, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("ran without the repository's sources")
        else:
            print("ok   refuses to run without the repository's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace, failures)
    check_refuses_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
