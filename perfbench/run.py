#!/usr/bin/env python3
"""Builds and runs the hpu benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload msort --seed 1 --seconds 35 --trace 0

Configures and builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build) on first use, then runs one workload. Build output
goes to stderr; stdout carries the benchmark's report, whose last line is
the JSON result. The exit status is the benchmark's: non-zero when the
build fails or any job's output differs from its reference.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("msort", "irregular", "plan")
SETUP_REPEATS = 3


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(target):
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, target)


def git_sha():
    """HEAD of the checkout, when it is a git work tree of its own."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return subprocess.call([build("perfbench_test")])
    if args.workload is None:
        ap.error("--workload is required")
    binary = build("hpubench")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--repeats=%d" % SETUP_REPEATS, "--out-dir=" + os.path.join(build_dir(), "out"),
           "--git-sha=" + git_sha()]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
