#!/usr/bin/env python3
"""Two-clock benchmark runner (see perfbench/README.md).

Builds the benchmark binary from the checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build at the checkout root), runs one
workload, and prints the binary's report with its JSON result as the last
line of standard output.

    python3 perfbench/run.py --workload dense_paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list-workloads

Exit status: 0 when every answer verified; nonzero on a wrong answer, a
failed reconciliation, a build failure, or a missing library source tree.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_paper", "sparse_pf", "service_mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "simplex", "solver.hpp")):
        sys.exit("error: no library sources under %s; run from a full "
                 "checkout" % os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        "perfbench"], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("error: build failed: %s" % err)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-workloads", action="store_true")
    # Self-check hooks used by perfbench/tests.
    ap.add_argument("--doctor",
                    choices=("negate-objective", "iteration-limit"))
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.list_workloads:
        sys.exit(subprocess.run([binary, "--list-workloads"]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.doctor:
        cmd += ["--doctor", args.doctor]
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("error: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        sys.exit("error: no JSON result from %s (exit %d)"
                 % (args.workload, proc.returncode))
    if set(result) != RESULT_KEYS:
        sys.exit("error: malformed result keys %s" % sorted(result))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
