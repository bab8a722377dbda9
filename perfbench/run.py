#!/usr/bin/env python3
"""Builds the perfbench driver from source, then runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The build goes to .bench_build/perfbench (CMake, RelWithDebInfo). It
compiles the library sources in src/ with perfbench/CMakeLists.txt and does
not use the repository's own build. Build output goes to standard error, so
the driver's JSON result stays the last line of standard output. Exits
non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr).returncode
        if code != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return code
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
