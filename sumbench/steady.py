#!/usr/bin/env python3
"""Steadiness check: runs each workload of BENCHMARK.json ten times, with
seeds 1 to 10, for its run_seconds, and prints, per metric, the median and
the quartile spread (Q3 - Q1 as a share of the median, from
statistics.quantiles(values, n=4)).

    python3 sumbench/steady.py [--trace]

With --trace it also makes one traced run per workload, prints the
per-layer metrics, and reports the tracing overhead: the traced run's client
median (trace.query_p50_ms) against the untraced run of the same seed. The
bounds in BENCHMARK.json are set from this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEEDS = range(1, RUNS + 1)


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)" %
                 (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    print("  %s seed %d: %.1f s" % (workload, seed, time.monotonic() - start),
          flush=True)
    if not result["correct"] or result["failed"]:
        print("  WARNING: %s seed %d: correct=%s failed=%d/%d" %
              (workload, seed, result["correct"], result["failed"],
               result["attempted"]))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(workload, seed, seconds, False) for seed in SEEDS]
        print("== %s: %d runs, seeds %d..%d" % (
            workload, RUNS, SEEDS[0], SEEDS[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        print("  failed share per run: %s" % sorted(shares))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = bounds[name]
            flag = ""
            if name != "setup_s":
                flag = "ok" if rel < bound / 3 else (
                    "WITHIN BOUND" if rel <= bound else "TOO WIDE")
            print("  %-24s median %12.4f %-7s spread %6.3f  bound %-5s %s" % (
                name, med, results[0]["metrics"][name]["unit"], rel, bound,
                flag))
        if args.trace:
            traced = run(workload, SEEDS[0], seconds, True)
            print("  -- traced run (seed %d)" % SEEDS[0])
            for name, m in traced["metrics"].items():
                print("  %-34s %14.4f %s" % (name, m["value"], m["unit"]))
            untraced = results[0]["metrics"]["query_p50_ms"]["value"]
            traced_p50 = traced["metrics"]["trace.query_p50_ms"]["value"]
            print("  tracing overhead: traced query_p50_ms %.4f vs %.4f "
                  "untraced, same seed (%+.1f%%)" % (
                      traced_p50, untraced, 100 * (traced_p50 / untraced - 1)))


if __name__ == "__main__":
    main()
