#!/usr/bin/env python3
"""Builds and runs the benchmark of record from a source checkout.

    python3 perfbench/run.py --workload <ingest|audit|serve> --seed N \
        --seconds S --trace <0|1>

Configures and builds perfbench/ (which compiles ../src) into the build
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs the
binary with the given arguments. Build output goes to stderr, so the last
line of stdout is the binary's JSON result. Exits non-zero without a result
when the library sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "pebble.h")):
        print("perfbench: no library sources under src/", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    binary = os.path.join(build, "perfbench")
    work = os.path.join(build, "work")
    return subprocess.call([binary] + argv + ["--work-dir", work])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
