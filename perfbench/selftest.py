#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs one pass of every workload in BENCHMARK.json at paper SF 10, once
untraced and once traced, and asserts that each run is correct and prints
every named metric of its kind with the declared unit. Then corrupts one
expected result hash and asserts that the correctness gate trips: the run
reports correct=false with failures and exits non-zero. Exits 0 when all
checks hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--paper-sf", "10",
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        kinds = ((0, spec["end_to_end"]), (1, spec["per_layer"]))
        for trace, declared in kinds:
            code, result = run(name, trace)
            where = f"{name} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: attempted/failed {result}")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(expected):
                problems.append(f"{where}: metrics {sorted(metrics)} != "
                                f"{sorted(expected)}")
            for metric, unit in expected.items():
                got = metrics.get(metric, {})
                if got.get("unit") != unit or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{where}: {metric} printed as {got}")
            print(f"ok   {where}: {len(metrics)} metrics")

    code, result = run("paper-static", 0, "--tamper-hash", "q17")
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"tampered hash not caught: exit {code}, {result}")
    else:
        print(f"ok   gate trips on a tampered hash: {result['failed']} of "
              f"{result['attempted']} failed, exit {code}")

    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
