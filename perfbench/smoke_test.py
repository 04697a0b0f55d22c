#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny length (--smoke) with
--trace 0 and --trace 1, and checks that each run is correct, prints every
metric BENCHMARK.json names with its unit (in the table and in the final
JSON line) and prints its provenance. It also checks that run.py fails
without printing a result when the repository sources are absent.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    """Returns the problems found in one smoke run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    label = "%s --trace %d" % (workload, trace)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        return ["%s: exit code %d" % (label, proc.returncode)]
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["%s: last line is not JSON" % label]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("%s: outputs not correct (%s failed)" %
                        (label, result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("%s: attempted must be a positive integer" % label)
    metrics = result.get("metrics", {})
    table = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3:
            table[fields[0]] = fields[2]
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append("%s: %s missing or not in %s" % (label, name, unit))
        if table.get(name) != unit:
            problems.append("%s: table line for %s lacks unit %s" %
                            (label, name, unit))
    provenance = [l for l in lines if l.startswith("provenance ")]
    if len(provenance) != 1:
        problems.append("%s: no provenance line" % label)
    else:
        p = json.loads(provenance[0][len("provenance "):])
        for key in ("git_rev", "source_sha256", "build_type", "nproc",
                    "workers", "seed", "samples"):
            if key not in p:
                problems.append("%s: provenance lacks %s" % (label, key))
    return problems


def check_bare_directory():
    """run.py must fail, printing no result, without the sources."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ws-diurnal",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: run.py succeeded or printed a result"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = check_bare_directory()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(workload["name"], trace, expected[trace])
    for p in problems:
        print("FAIL " + p)
    if problems:
        return 1
    print("ok: %d workloads x 2 modes, %d + %d metrics" %
          (len(spec["workloads"]), len(expected[0]), len(expected[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
