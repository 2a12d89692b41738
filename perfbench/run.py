#!/usr/bin/env python3
"""Build and run the reproduction's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn

The libraries and the benchmark program are built from source into
.bench_build/ (CMake, Release). --trace 0 prints the workload's end-to-end
metrics; --trace 1 runs the workload's per-layer ledger and writes its spans
as Chrome trace-event JSON under .bench_build/traces/. The last line of
standard output is the result object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 when every check passed, 1 when a check failed or the build
failed (no result line after a failed build), 2 on bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.txt")
WORKLOADS = ("suite", "mix", "serve")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark program and the libraries it links."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    # Configure only until it has succeeded once (it writes the Makefile).
    if os.path.exists(os.path.join(BUILD, "Makefile")):
        steps = steps[1:]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def git_rev():
    """The checkout's revision, read at run time; "unknown" outside git."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_one(args, workload):
    """Run the benchmark program for one workload, echoing its report lines; returns
    (exit code, result line, parsed result) with None for a missing result."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--digests", DIGESTS, "--git-rev", git_rev()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{workload}-{args.seed}.json")]
    if args.jobs:
        command += ["--jobs", str(args.jobs)]
    if args.smoke:
        command.append("--smoke")
    if args.perturb:
        command.append("--perturb")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None, None
    lines = proc.stdout.splitlines()
    if not lines or proc.returncode not in (0, 1):
        print("\n".join(lines))
        return proc.returncode or 1, None, None
    print("\n".join(lines[:-1]))
    return proc.returncode, lines[-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="executor workers (default min(4, nproc))")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--perturb", action="store_true",
                        help="test hook: alter one simulated statistic")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        code, line, _ = run_one(args, args.workload)
        if line is not None:
            print(line)
        return code

    # Every workload in turn; the combined result names each metric
    # <workload>.<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, _, result = run_one(args, workload)
        if result is None:
            return code
        worst = max(worst, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
