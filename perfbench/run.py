#!/usr/bin/env python3
"""Builds the AutoMC benchmark from source and runs one workload.

    python3 perfbench/run.py --workload search_c10|serve_jobs|control_plane \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. The build lives in $CARGO_TARGET_DIR (a
path relative to the root) or, when that is unset, in .bench_build/; scratch
files of a run live in .bench_work/ and are removed when the run ends. Build
output goes to stderr, so the last line of stdout is the benchmark's result
object. See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, targets):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return rc
    return subprocess.call(
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, stderr=sys.stderr)


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if "--self-test" in argv:
        rc = build(build_dir, ["perfbench_checks_test"])
        if rc != 0:
            print("perfbench: build failed", file=sys.stderr)
            return rc
        return subprocess.call([os.path.join(build_dir, "perfbench_checks_test")])
    rc = build(build_dir, ["perfbench", "automc_serve"])
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--serve-bin", os.path.join(build_dir, "automc_serve"),
           "--work", work] + argv
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
