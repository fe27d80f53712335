#!/usr/bin/env python3
"""Build and run the GekkoFS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a GekkoFS source tree. The first call configures
and builds perfbench/ (and the GekkoFS libraries it links) into
.bench_build/; later calls only bring that build up to date. All output
of the build goes to stderr, so the last line of stdout is the
benchmark's JSON result. See perfbench/README.md for the workloads and
metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("perfbench: no GekkoFS sources next to perfbench/ (need ../CMakeLists.txt "
              "and ../src)", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "--parallel", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
