#!/usr/bin/env python3
"""End-to-end benchmark of the dswm library.

    python3 bench_e2e/run.py --workload <da2_synthetic|pwr_pamap|serve_wiki>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a dswm checkout. Builds the library and the dswm_e2e
binary from source (Release, into .bench_build/e2e; the first run compiles,
later runs only re-check), then runs one workload and passes its output
through. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to
standard error. Exits 0 when every correctness gate passed, non-zero
otherwise (and without a result when the checkout holds no dswm sources
or the build fails).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("da2_synthetic", "pwr_pamap", "serve_wiki")
# dswm_e2e is stopped past this; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: no dswm sources beside %s; run it from a dswm "
              "checkout" % os.path.basename(bench_dir), file=sys.stderr)
        return 2

    build_dir = os.path.join(root, ".bench_build", "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "dswm_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return 2

    command = [os.path.join(build_dir, "dswm_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: dswm_e2e exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
