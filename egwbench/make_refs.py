#!/usr/bin/env python3
"""Remakes the trace workloads' reference digests.

Each (variant, trace) pair runs egwbench_refs, which replays the trace
with the unoptimised SimpleWalker (and, for S traces, a plain-string
replay). At scale 0.25 a trace takes 50-140 s of CPU, so the pairs run
in parallel.

    python3 egwbench/make_refs.py [--variants 0-3] [--jobs 3]

Run it from the repository root. It writes egwbench/refs/trace_refs.txt,
which the benchmark reads.
"""

import argparse
import concurrent.futures
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper)

TRACES = ["C1", "C2", "S1", "S2", "S3", "A1", "A2"]


def parse_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--variants", default="0-3")
    ap.add_argument("--jobs", type=int, default=3)
    args = ap.parse_args()

    binary = run.build("egwbench_refs")
    pairs = [(v, t) for v in parse_range(args.variants) for t in TRACES]

    def one(pair):
        v, t = pair
        out = subprocess.run([binary, "--variant", str(v), t], check=True,
                             capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        return out.stdout.strip()

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        lines = list(pool.map(one, pairs))
    out_path = os.path.join(run.HERE, "refs", "trace_refs.txt")
    with open(out_path, "w") as f:
        f.write("# variant trace chars fnv1a64(final text)\n")
        f.write("# Made by egwbench/make_refs.py with the SimpleWalker oracle.\n")
        for line in sorted(lines, key=lambda l: (int(l.split()[0]), l.split()[1])):
            f.write(line + "\n")
    print(f"wrote {len(lines)} references to {out_path}")


if __name__ == "__main__":
    main()
