#!/usr/bin/env python3
"""Steadiness check: runs each workload as two sets of repeated runs of the
current tree and reports, per end-to-end metric, each set's median and
quartiles, the spread (interquartile range over median) and whether it is
within the metric's bound, and whether the second set's median is within
the bound of the first's, in either direction. Bounds and the run length
come from BENCHMARK.json.

    python3 egwbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]

Run it from the repository root. Runs are serial; every set uses seeds
1 .. runs, so the sets differ only by run-to-run noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def drift(first, second):
    """How far the second median moved from the first, as a share."""
    return (second - first) / first if first else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    metrics = bench["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = [run_once(bench["command"], workload, 1 + r, seconds)
                       for r in range(args.runs)]
            shares = {r["failed"] / r["attempted"] for r in results}
            if any(not r["correct"] for r in results):
                ok = False
            sets.append({"results": results, "failed_shares": sorted(shares)})
        print(f"\n{workload}  ({args.sets} sets x {args.runs} runs, {seconds} s each)")
        print(f"  {'metric':24} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            summaries = [summarize([r["metrics"][name]["value"] for r in st["results"]])
                         for st in sets]
            for k, sm in enumerate(summaries):
                steady = sm["spread"] <= bound
                verdict = "steady" if steady else "SPREAD TOO WIDE"
                if k > 0:
                    moved = drift(summaries[0]["median"], sm["median"])
                    agree = abs(moved) <= bound
                    verdict += f", vs set 1 {moved:+.1%} " + ("agrees" if agree else "DISAGREES")
                    ok = ok and agree
                ok = ok and steady
                print(f"  {name:24} {k + 1:>3} {sm['median']:>14.6g} {sm['q1']:>14.6g} "
                      f"{sm['q3']:>14.6g} {sm['spread']:>7.2%} {bound:>6.0%}  {verdict}")
        fail_shares = [st["failed_shares"] for st in sets]
        same_share = len(fail_shares[0]) == 1 and all(f == fail_shares[0] for f in fail_shares)
        ok = ok and same_share
        print(f"  failed/attempted per set: {fail_shares}"
              + ("" if same_share else "  DIFFERS"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
