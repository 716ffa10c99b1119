#!/usr/bin/env python3
"""Builds the sumtab benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 sumbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

The program is compiled in Release mode from sumbench/CMakeLists.txt into
.bench_build/sumbench (the repository's own CMake files are not used).
Each run works in a fresh .bench_build/run-<pid> directory, removed
afterwards. The last line of standard output is the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "sumbench")
BINARY = os.path.join(BUILD_DIR, "sumbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sumtab", "database.h")):
        sys.exit("sumbench: no sumtab sources under " + os.path.join(ROOT, "src"))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("sumbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["dashboard", "adhoc", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    data_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    try:
        done = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--data-dir", data_dir])
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
