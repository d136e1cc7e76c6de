#!/usr/bin/env python3
"""Build and run the ccf end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload service_hot --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the ccf libraries it
compiles from src/) into .bench_build; later calls rebuild incrementally.
Build output goes to stderr. The benchmark's own stdout is passed through,
so its last line is the JSON result.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "ccf_perfbench")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found; run from the root "
                 "of a full checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ccf_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    build()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
