#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and --trace 1 runs write their
spans to <build dir>/perfbench/traces/. The last line of standard output is
the benchmark's JSON result; its exit code is the benchmark's (1: a reference
check failed, 2: bad arguments or a failed build, 3: timeout).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prepare_bound", "serve_enum", "serve_churn")
RUN_TIMEOUT_S = 175


def git_sha():
    """HEAD's commit, read from .git directly; "unknown" outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[len("ref: "):])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def build(build_dir):
    """Configures and builds the benchmark; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    # Compiler temporaries go to the build directory, not the system /tmp.
    env = dict(os.environ, TMPDIR=build_dir)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--parallel",
         str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, env=env)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "cfl_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", os.path.join(
            trace_dir, "%s-%d.jsonl" % (args.workload, args.seed)),
        "--git-sha", git_sha(),
    ]
    sys.stdout.flush()
    try:
        # The benchmark's socket goes to its working directory.
        return subprocess.run(cmd, cwd=build_dir,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
