#!/usr/bin/env python3
"""Build the e2ebench driver from source and run one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload map-short --seed 1 --seconds 20 --trace 0

The program is configured and built under .bench_build/ (incremental
after the first run), the workload's inputs are generated from the seed
into a scratch directory under .bench_run/, and the driver's report and
its final JSON line go to standard output. Build logs go to standard
error. Exits non-zero, printing no result, when the build fails or the
sources are missing; exits 1 with "correct": false when an output check
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("map-short", "shards-serve")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "e2ebench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("e2ebench: build failed")
    return os.path.join(BUILD, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed,
                                            os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Relative to ROOT: keeps the daemon's socket path short.
    rel = os.path.relpath(work, ROOT)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", rel]
    try:
        gen = subprocess.run([binary, "gen"] + common, cwd=ROOT,
                             stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            sys.exit("e2ebench: input generation failed")
        sys.stdout.flush()
        run = subprocess.run(
            [binary, "run"] + common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
        sys.exit(run.returncode)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass


if __name__ == "__main__":
    main()
