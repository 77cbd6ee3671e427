#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build (CMake, Release) goes to $CARGO_TARGET_DIR, or .bench_build at
the checkout root when unset; later runs rebuild only what changed. Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. Exits non-zero, printing no result, when the sources are missing
or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "answerability.h")):
        print("run.py: no rbda sources under %s/src" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "rbda_perfbench", "rbda_serve"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "rbda_perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
