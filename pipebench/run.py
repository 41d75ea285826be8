#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

    python3 pipebench/run.py --workload wire_1k --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
bdisk library and the benchmark under .bench_build/pipebench (CMake,
Release); later runs reuse that build. The benchmark's notes go to
stderr; the last line of stdout is its JSON result. The exit code is the
benchmark's: 0 when every output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
WORKLOADS = ("wire_1k", "update_churn", "fleet")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("pipebench: no library sources at %s" % ROOT)
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pipebench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("pipebench: build failed: %s" % err)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("pipebench: run exceeded %d s" % RUN_TIMEOUT_S)
    out = run.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)


if __name__ == "__main__":
    main()
