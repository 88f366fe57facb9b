#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) with dune's shared cache off, so nothing is
written outside the checkout.  This process then becomes the benchmark
binary (exec), so its output and exit code are the benchmark's own.
See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = [
        "dune", "build", "--root", ".", "--build-dir", build_dir,
        "--cache=disabled", "--profile", "release", "./perfbench/main.exe",
    ]
    # dune's own chatter goes to stderr: the last line of stdout is the
    # benchmark's result.
    status = subprocess.run(build, stdout=sys.stderr).returncode
    if status != 0:
        print("perfbench: build failed (exit %d)" % status, file=sys.stderr)
        sys.exit(status or 1)
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
