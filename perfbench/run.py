#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Stay-Away reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary from source (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), then runs two processes on the
workload the seed generates:

  * untraced: times set-up and repeats harness::run_fleet for S seconds
    with no observer and no recorder attached;
  * traced: drives the same fleet through the layers' public calls,
    timing each one from the benchmark (perfbench/traced.cpp).

Both must produce the same period records bit for bit; every
disagreement counts as a failed host-period. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
README.md in this directory defines every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ws-diurnal", "vlc-fleet", "cluster-recovery")



def load_metrics():
    """name -> unit of the end-to-end and the per-layer metrics, in the
    order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class BenchError(Exception):
    pass


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return os.path.join(root, "perfbench")


def nproc():
    """CPUs this process may run on (the container's share, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no Stay-Away sources next to perfbench/ (src/ missing)")
    bdir = build_dir()
    # Keep the compilers' temporary files inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, nproc()))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build failed: %s" % e)
        if proc.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def run_process(binary, args, timeout):
    """Runs one perfbench process and parses its report."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("%s: %s" % (" ".join(args), e))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(args), proc.returncode))
    report = {"digests": {}, "hosts": [], "outcome": {}, "walls": [], "setups": []}
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "digest":
            host, _, hashes = rest.partition(" ")
            report["hosts"].append(host)
            report["digests"][host] = hashes.split(",") if hashes else []
        elif kind == "outcome":
            report["outcome"] = dict(f.split("=", 1) for f in rest.split())
        elif kind in ("walls", "setups"):
            report[kind] = [float(x) for x in rest.split()]
    try:
        report["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("%s printed no result" % " ".join(args))
    return report


def cross_failed(untraced, traced, periods):
    """Host-periods on which the traced run disagrees with the untraced."""
    hosts = untraced["hosts"]
    # Fleet-wide figures: violations, batch work, coordinator events and
    # the exact counts.
    if hosts != traced["hosts"] or untraced["outcome"] != traced["outcome"]:
        return len(hosts) * periods
    failed = 0
    for host in hosts:
        a, b = untraced["digests"][host], traced["digests"][host]
        failed += sum(1 for p in range(periods)
                      if p >= len(a) or p >= len(b) or a[p] != b[p])
    return failed


def git_rev():
    """The checkout's commit when it is a git work tree, read from files."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the measured sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="run a few dozen periods per host (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    end_to_end, per_layer = load_metrics()
    binary = build()
    # A measurement (after any build) must end within 180 s.
    deadline = time.monotonic() + 170
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    untraced = run_process(binary, common + ["--mode", "e2e", "--seconds",
                                             str(args.seconds)],
                           timeout=deadline - time.monotonic())
    traced = run_process(binary, common + ["--mode", "traced"],
                         timeout=max(1.0, deadline - time.monotonic()))

    u, t = untraced["result"], traced["result"]
    periods = int(u["periods_per_host"])
    cross = cross_failed(untraced, traced, periods)
    attempted = u["attempted"] + t["attempted"]
    failed = min(attempted, u["failed"] + t["failed"] + cross)

    # The traced process's own untraced runs against its traced run's
    # accounting (traced.hpp).
    wall = t["untraced_wall_s"]
    metrics = {k: dict(v) for k, v in u["metrics"].items()}
    metrics.update({k: dict(v) for k, v in t["metrics"].items()})
    derived = {
        "failed_frac": failed / attempted,
        "trace.overhead_pct": (t["wall_s"] - wall) / wall * 100.0,
        "fleet.parallel_efficiency": t["busy_s"] / (t["workers"] * wall),
        "harness.overhead_share": (wall - t["critical_s"]) / wall,
    }
    for name, value in derived.items():
        metrics[name] = {"value": value, "unit": per_layer[name], "samples": 0}

    names = end_to_end if args.trace == 0 else per_layer
    for name, unit in names.items():
        m = metrics[name]
        if m["unit"] != unit:
            raise BenchError("%s reported in %s, expected %s" % (name, m["unit"], unit))
        samples = "  (n=%d)" % m["samples"] if m["samples"] else ""
        print("%-34s %.10g %s%s" % (name, m["value"], unit, samples))

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "build_type": build_type(),
        "nproc": nproc(),
        "workers": int(u["workers"]),
        "hosts": int(u["hosts"]),
        "periods_per_host": periods,
        "untraced_wall_s": untraced["walls"],
        "setup_s": untraced["setups"],
        "traced_wall_s": t["wall_s"],
        "samples": {k: metrics[k]["samples"] for k in names if metrics[k]["samples"]},
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("correctness: %d of %d host-periods failed" % (failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": unit}
                    for k, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
