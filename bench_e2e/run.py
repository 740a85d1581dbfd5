#!/usr/bin/env python3
"""Builds and runs the DIABLO end-to-end benchmark.

Run from the root of a DIABLO source tree:

    python3 bench_e2e/run.py --workload fig3_flat --seed 1 --seconds 20 --trace 0

The first run configures and builds the driver (CMake, Release) under
$CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e); later runs
rebuild only what changed. Build output goes to stderr. The driver's last
stdout line is the JSON result; see bench_e2e/README.md for the metrics.
Exits non-zero without a result when the tree cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "bench_e2e")


def build(out_dir):
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    root = os.getcwd()
    out_dir = build_dir(root)
    if not build(out_dir):
        return 3
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(out_dir, "bench_e2e")] + sys.argv[1:] + [
        "--root", root, "--trace-dir", trace_dir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
